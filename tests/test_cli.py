import json
import random

import pytest

from apnkit import catalog
from apnkit.cli import main
from apnkit.gf2 import default_field
from apnkit.ortho import invariant_signature, spectrum_str
from apnkit.vbf import (
    VBF, differential_spectrum, extended_walsh_spectrum, is_apn, linearity,
    random_function, random_quadratic,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_fixture(tmp_path, name, filename=None):
    rec = catalog.record_from_vbf(catalog.fixture(name), name)
    p = tmp_path / (filename or f"{name}.lut")
    p.write_text(catalog.serialize_record(rec) + "\n")
    return str(p)


def test_analyze_appendix_r(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "fixture:appendixA_R")
    assert code == 0
    assert "apn=true" in out and "degree=2" in out


def test_analyze_t6_linearity(capsys):
    code, out, _ = run(capsys, "analyze", "fixture:T6")
    assert code == 0 and "linearity=32" in out


def test_analyze_identity_file(capsys, tmp_path):
    rec = catalog.record_from_vbf(VBF.identity(4), "id4")
    p = tmp_path / "id4.lut"
    p.write_text(catalog.serialize_record(rec))
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    assert "apn=false" in out and "degree=1" in out


def test_analyze_json_mode(capsys):
    code, out, _ = run(capsys, "analyze", "--json", "fixture:gold5")
    assert code == 0
    data = json.loads(out)
    assert data["apn"] is True and data["linearity"] == 8


def test_analyze_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "broken.lut"
    p.write_text("lut n=3 m=3: 00 01")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 1 and "error:" in err


def test_analyze_determinism(capsys):
    _, out1, _ = run(capsys, "analyze", "fixture:G1")
    _, out2, _ = run(capsys, "analyze", "fixture:G1")
    assert out1 == out2


ANALYZE_INPUTS = {
    "gold7": lambda: catalog.fixture("gold7"),
    "T6": lambda: catalog.fixture("T6"),
    "x^126": lambda: VBF.from_univariate(default_field(7), [(1, 126)]),
    "identity(4)": lambda: VBF.identity(4),
    "zero(3)": lambda: VBF.constant(3, 3),
    "random_function(6, 6)": lambda: random_function(6, 6, random.Random(6)),
    "random_function(5, 3)": lambda: random_function(5, 3, random.Random(5)),
    "random_quadratic(4, 6)": lambda: random_quadratic(4, 6, random.Random(4)),
}


@pytest.mark.parametrize("name", ANALYZE_INPUTS)
def test_analyze_fields_match_the_direct_calls(capsys, tmp_path, name):
    """analyze reads its fields off the signature when n = m; both output
    modes print what the direct calls give."""
    f = ANALYZE_INPUTS[name]()
    p = tmp_path / "f.lut"
    p.write_text(catalog.serialize_record(catalog.record_from_vbf(f, "f")))
    want = {"n": f.n, "m": f.m, "degree": f.degree,
            "apn": is_apn(f) if f.n == f.m else False, "linearity": linearity(f),
            "differential_spectrum": spectrum_str(differential_spectrum(f)),
            "extended_walsh_spectrum": spectrum_str(extended_walsh_spectrum(f))}
    line = " ".join(f"{k}={str(v).lower() if isinstance(v, bool) else v}"
                    for k, v in want.items()) + "\n"
    if f.n == f.m:
        want["signature"] = invariant_signature(f).canonical()
        line += f"signature={want['signature']}\n"
    assert run(capsys, "analyze", "--json", str(p)) == (0, json.dumps(want, sort_keys=True) + "\n", "")
    assert run(capsys, "analyze", str(p)) == (0, line, "")


def test_trim_spectrum_gold6(capsys):
    code, out, _ = run(capsys, "trim-spectrum", "fixture:gold6")
    assert code == 0
    assert "apn_trims=0" in out and f"trims={2 * 63 * 63}" in out


def test_trim_spectrum_reduced_rejects_cubic(capsys, tmp_path):
    cubic = VBF.from_univariate(catalog.default_field(5), [(1, 7)])
    p = tmp_path / "cubic.lut"
    p.write_text(catalog.serialize_record(catalog.record_from_vbf(cubic, "c")))
    code, _, err = run(capsys, "trim-spectrum", "--quadratic-reduced", str(p))
    assert code == 1 and "degree" in err


def test_trim_spectrum_parallel_matches_serial(capsys, tmp_path):
    cubic = VBF.from_univariate(catalog.default_field(5), [(1, 7)])
    p = tmp_path / "cubic.lut"
    p.write_text(catalog.serialize_record(catalog.record_from_vbf(cubic, "c")))
    for argv in (["fixture:gold5"], ["fixture:gold5", "--quadratic-reduced"],
                 [str(p)]):
        code, serial, _ = run(capsys, "trim-spectrum", *argv, "-j", "1")
        assert code == 0
        code, par, _ = run(capsys, "trim-spectrum", *argv, "-j", "2")
        assert code == 0 and par == serial


def test_trim_spectrum_rejects_nonpositive_parallelism(capsys):
    for argv in (["-j", "0"], ["-j", "-3"]):
        code, out, err = run(capsys, "trim-spectrum", "fixture:gold3", *argv)
        assert code == 1 and out == "" and "workers must be at least 1" in err


def test_trim_graph_command(capsys, tmp_path):
    t6 = _write_fixture(tmp_path, "T6")
    g5 = _write_fixture(tmp_path, "gold5")
    base = str(tmp_path / "graph")
    code, out, _ = run(capsys, "trim-graph", t6, g5, "-o", base)
    assert code == 0
    assert "nodes=3" in out and "edges=2" in out
    dot = (tmp_path / "graph.dot").read_text()
    assert dot.count("->") == 2
    jl = (tmp_path / "graph.jsonl").read_text().strip().splitlines()
    assert sum(1 for line in jl if json.loads(line)["type"] == "edge") == 2


def test_one_bit_input_is_a_usage_error(capsys, tmp_path):
    p = tmp_path / "one.lut"
    p.write_text("lut id=one n=1 m=1: 0 1\n")
    for argv in (("recursive", str(p)),
                 ("trim-graph", str(p), "-o", str(tmp_path / "graph"))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: trims need n >= 2\n"


def test_recursive_gold6_no_chain(capsys):
    code, out, _ = run(capsys, "recursive", "fixture:gold6")
    assert code == 0 and "found=false" in out


def test_recursive_appendix_chain_emits_reverifiable_functions(capsys):
    # full witness search on the 8-bit fixture (under a second: quadratic)
    from apnkit.vbf import is_apn
    code, out, _ = run(capsys, "recursive", "fixture:appendixA_R")
    assert code == 0
    assert "found=true chain_dims=8,7,6,5,4,3,2" in out
    luts = [ln for ln in out.splitlines() if ln.startswith("lut ")]
    assert len(luts) == 7
    for line in luts:
        f = catalog.parse_function(line).to_vbf()
        assert is_apn(f)


def test_usage_errors_exit_1(capsys):
    for argv in (["bogus"],
                 ["r-extend", "fixture:gold5", "--budget", "xyz"],
                 ["trim-spectrum", "fixture:gold3", "-j", "abc"],
                 ["trim-spectrum"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["trim-spectrum", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def test_convert_to_uni_unsupported(capsys, tmp_path):
    p = tmp_path / "id.lut"
    p.write_text(catalog.serialize_record(
        catalog.record_from_vbf(VBF.identity(3), "id3")))
    code, _, err = run(capsys, "convert", str(p), "--to", "uni")
    assert code == 1 and "not supported" in err


def test_zero_extend_gold5(capsys, tmp_path):
    out_path = tmp_path / "ext.jsonl"
    code, out, _ = run(capsys, "zero-extend", "fixture:gold5",
                       "-o", str(out_path))
    assert code == 0
    assert out.startswith("found=1")
    assert "linearity=32" in out
    loaded, skipped = catalog.load_results(str(out_path))
    assert len(loaded) == 1 and skipped == 0
    t = loaded[0].to_vbf()
    assert invariant_signature(t).canonical() == loaded[0].signature


def test_zero_extend_gold7_found_zero(capsys):
    code, out, _ = run(capsys, "zero-extend", "fixture:gold7")
    assert code == 0 and out.strip() == "found=0"


def test_r_extend_finds_and_reverifies(capsys, tmp_path):
    out_path = tmp_path / "r.jsonl"
    code, out, _ = run(capsys, "r-extend", "fixture:gold5", "--seed", "1",
                       "--budget", "1000000", "-o", str(out_path))
    assert code == 0
    assert "found=1" in out
    lut_line = [ln for ln in out.splitlines() if ln.startswith("lut ")][0]
    t = catalog.parse_function(lut_line).to_vbf()
    from apnkit.vbf import is_apn
    assert is_apn(t) and t.degree == 2


def test_r_extend_budget_exhaustion_exits_zero(capsys):
    code, out, _ = run(capsys, "r-extend", "fixture:gold5", "--seed", "2",
                       "--budget", "100")
    assert code == 0 and "found=0" in out


def test_r_extend_determinism(capsys):
    args = ("r-extend", "fixture:gold5", "--seed", "7", "--budget", "300000")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_r_extend_rejects_negative_budget_or_restarts(capsys):
    for flag in ("--budget", "--restarts"):
        code, out, err = run(capsys, "r-extend", "fixture:gold5", flag, "-1")
        assert code == 1 and out == ""
        assert "must be at least 0" in err and "Traceback" not in err


def test_convert_without_input_is_a_usage_error(capsys):
    code, out, err = run(capsys, "convert")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "the following arguments are required: input" in err


def test_convert_fixture_round_trip(capsys):
    code, out, _ = run(capsys, "convert", "fixture:G1")
    assert code == 0
    rec = catalog.parse_function(out.strip())
    assert rec.to_vbf() == catalog.g7(1)


def test_convert_output_file_holds_the_printed_text(capsys, tmp_path):
    code, out, _ = run(capsys, "convert", "fixture:G1")
    assert code == 0
    path = tmp_path / "g1.lut"
    assert run(capsys, "convert", "fixture:G1", "-o", str(path)) == (0, "", "")
    assert path.read_text(encoding="utf-8") == out


def test_convert_uni_to_lut(capsys, tmp_path):
    p = tmp_path / "g3.uni"
    p.write_text("uni n=3 mod=0xb: (0x02^0,3)")
    code, out, _ = run(capsys, "convert", str(p), "--to", "lut")
    assert code == 0
    assert catalog.parse_function(out.strip()).to_vbf() == catalog.gold(3)


def test_unknown_fixture_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "fixture:bogus")
    assert code == 1 and "unknown fixture" in err
