import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apnkit import catalog, gf2
from apnkit.catalog import (
    FunctionRecord, ParseError, export_graph, fixture, fixture_names,
    load_results, parse_function, persist_results, record_from_vbf,
    result_record, serialize_record,
)
from apnkit.ortho import invariant_signature
from apnkit.trimming import recursive_witness, trimming_graph
from apnkit.vbf import VBF, is_apn, linearity, random_function


def test_parse_lut_example():
    rec = parse_function("lut n=3 m=3: 00 01 03 02 07 06 04 05")
    f = rec.to_vbf()
    assert f.n == f.m == 3
    assert f.table.tolist() == [0, 1, 3, 2, 7, 6, 4, 5]


def test_parse_appendix_hex_block():
    body = " ".join(catalog._APPENDIX_R_HEX.split())
    rec = parse_function(f"lut n=8 m=8: {body}")
    f = rec.to_vbf()
    assert f(1) == 0x79
    assert f == catalog.appendix_r()


def test_parse_univariate_matches_fixture():
    text = serialize_record(FunctionRecord("G1", 7, 7, "uni", modulus=0x83,
                                           terms=catalog._terms_from_exponents(
                                               catalog.FieldSpec(7, 0x83),
                                               catalog._G7_TERMS[1])))
    rec = parse_function(text)
    assert invariant_signature(rec.to_vbf()) == invariant_signature(catalog.g7(1))


def test_parse_univariate_small():
    rec = parse_function("uni n=3 mod=0xb: (0x02^0,3)")
    assert rec.to_vbf() == catalog.gold(3)
    raw = parse_function("uni n=3 mod=0xb: (0x1,3)")
    assert raw.to_vbf() == catalog.gold(3)
    gpow = parse_function("uni n=3 mod=0xb: (g^1,1)")
    assert gpow.to_vbf()(1) == 2


def test_parse_univariate_of_degree_1():
    # X = 1 in F_2[X]/(X + 1), so 0x02^k is 1 and 0^0 = 1
    rec = parse_function("uni n=1 mod=0x3: (0x1,0)")
    assert rec.to_vbf() == VBF.constant(1, 1, 1)
    text = serialize_record(rec)
    assert text == "uni id=uni1 n=1 mod=0x3: (0x02^0,0)"
    again = parse_function(text)
    assert again == rec and serialize_record(again) == text
    assert parse_function("uni n=1 mod=0x3: (0x02^5,1)").to_vbf() == VBF.identity(1)
    with pytest.raises(ParseError, match="generator X zero"):
        parse_function("uni n=1 mod=0x2: (0x1,0)")


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError, match="expected"):
        parse_function("nonsense")
    with pytest.raises(ParseError, match="wrong table length"):
        parse_function("lut n=3 m=3: 00 01")
    with pytest.raises(ParseError, match="entry 2"):
        parse_function("lut n=2 m=2: 00 01 zz 03")
    with pytest.raises(ParseError, match="entry 1"):
        parse_function("lut n=2 m=2: 00 07 01 03")
    with pytest.raises(ParseError, match="reducible"):
        parse_function("uni n=4 mod=0x15: (0x1,3)")
    with pytest.raises(ParseError, match="exponent"):
        parse_function("uni n=3 mod=0xb: (0x1,8)")
    with pytest.raises(ParseError, match="term 1"):
        parse_function("uni n=3 mod=0xb: (0x1,3) (oops,1)")


@pytest.mark.parametrize("text", ["lut n=0 m=1: 0", "lut n=2 m=20: 0 1 2 3",
                                  "uni n=17 mod=0x20009: (0x1,3)"])
def test_parse_rejects_dimensions_outside_vbf_range(text):
    with pytest.raises(ParseError, match=r"outside \[1, 16\]"):
        parse_function(text)


def test_parse_errors_from_field_and_number_checks():
    # FieldSpec is the one field validator: its errors surface as parse errors
    with pytest.raises(ParseError, match="0x15 does not have degree 3"):
        parse_function("uni n=3 mod=0x15: (0x1,3)")
    # a number too long for int() is not read as one
    with pytest.raises(ParseError, match="term 0"):
        parse_function("uni n=3 mod=0xb: (0x1," + "1" * 5000 + ")")
    with pytest.raises(ParseError, match="expected"):
        parse_function("lut n=" + "1" * 5000 + " m=1: 0 1")


_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
_IDS = st.text(st.characters().filter(lambda c: not c.isspace()),
               min_size=1, max_size=10)
_IRREDUCIBLE = {n: [p for p in range(1 << n, 2 << n) if gf2.is_irreducible(p)]
                for n in range(2, 7)}


@st.composite
def _lut_records(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 16))
    table = draw(st.lists(st.integers(0, (1 << m) - 1),
                          min_size=1 << n, max_size=1 << n))
    return FunctionRecord(draw(_IDS), n, m, "lut", table=tuple(table))


@st.composite
def _uni_records(draw):
    n = draw(st.integers(2, 6))
    word = st.integers(0, (1 << n) - 1)
    terms = draw(st.lists(st.tuples(word, word), max_size=4))
    return FunctionRecord(draw(_IDS), n, n, "uni",
                          modulus=draw(st.sampled_from(_IRREDUCIBLE[n])),
                          terms=tuple(terms))


@_FUZZ
@given(st.one_of(_lut_records(), _uni_records()))
def test_serialization_round_trips(rec):
    back = parse_function(serialize_record(rec))
    assert back == rec
    assert back.to_vbf() == rec.to_vbf()


def _parse_or_parse_error(text):
    """Parse text; what parses must also build its function."""
    try:
        rec = parse_function(text)
    except ParseError:
        return
    f = rec.to_vbf()
    assert (f.n, f.m) == (rec.n, rec.m)


@_FUZZ
@given(st.text(max_size=80))
def test_parser_raises_only_parse_error_on_text(text):
    _parse_or_parse_error(text)


_MUTATION_BASES = [
    "lut id=f n=3 m=3: 00 01 03 02 07 06 04 05",
    "lut n=2 m=16: 0000 ffff 0001 8000",
    "uni id=g n=3 mod=0xb: (0x02^0,3) (0x0,1)",
    "uni n=5 mod=0x25: (g^3,5) (0x1f,3)",
]
_SPLICE = st.tuples(st.integers(0, 60), st.integers(0, 3),
                    st.text(alphabet="0123456789abcdefx^=(), :nmlutgid-", max_size=5))


@_FUZZ
@given(st.sampled_from(_MUTATION_BASES),
       st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=1, max_size=3),
       st.lists(_SPLICE, max_size=2))
def test_parser_raises_only_parse_error_on_mutated_records(text, numbers, splices):
    # set some runs of digits to new values, then splice in text
    for which, value in numbers:
        runs = list(re.finditer(r"\d+", text))
        run = runs[which % len(runs)]
        text = text[:run.start()] + str(value) + text[run.end():]
    for pos, cut, insert in splices:
        pos %= len(text) + 1
        text = text[:pos] + insert + text[pos + cut:]
    _parse_or_parse_error(text)


def test_record_round_trip_fixtures_and_random():
    rng = random.Random(0)
    recs = [record_from_vbf(catalog.appendix_r(), "R"),
            record_from_vbf(catalog.t6(), "T6")]
    for i in range(100):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 9)
        recs.append(record_from_vbf(random_function(n, m, rng), f"r{i}"))
    for rec in recs:
        assert parse_function(serialize_record(rec)) == rec


def test_uni_record_round_trip():
    rec = FunctionRecord("g5", 5, 5, "uni", modulus=0x25, terms=((1, 3),))
    assert parse_function(serialize_record(rec)) == rec
    # term order is canonicalized, so shuffled construction round-trips too
    shuffled = FunctionRecord("f", 5, 5, "uni", modulus=0x25,
                              terms=((1, 3), (2, 9), (5, 5)))
    assert shuffled.terms == ((2, 9), (5, 5), (1, 3))
    assert parse_function(serialize_record(shuffled)) == shuffled


def test_record_ids_must_be_parseable():
    f = catalog.gold(3)
    for bad in ("", "a b", "tab\tin", "end\n", "\u00a0"):
        with pytest.raises(ValueError, match="id"):
            record_from_vbf(f, bad)
    with pytest.raises(ValueError, match="id"):
        FunctionRecord("a b", 5, 5, "uni", modulus=0x25, terms=((1, 3),))


def test_fixture_registry():
    assert "appendixA_R" in fixture_names()
    assert fixture("gold5") == catalog.gold(5)
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture("nope")


def test_fixture_self_verification():
    # loading verifies the recorded degree/APN/linearity claims
    assert is_apn(fixture("appendixA_R"))
    assert linearity(fixture("T6")) == 32
    assert linearity(fixture("T8_3")) == 128
    sigs = {invariant_signature(fixture(f"G{i}")) for i in (1, 2, 3, 4)}
    assert len(sigs) == 4
    assert fixture("EP6_2_6") == catalog.t6()
    assert is_apn(fixture("EP6_1_2")) and is_apn(fixture("EP6_2_1"))


def test_persist_and_load_round_trip(tmp_path):
    path = tmp_path / "out.jsonl"
    recs = [result_record(catalog.gold(n), f"g{n}", "test") for n in (3, 4, 5)]
    persist_results(recs, str(path))
    loaded, skipped = load_results(str(path))
    assert skipped == 0
    assert loaded == recs
    for rec in loaded:
        assert rec.to_vbf() == catalog.gold(rec.n)


def test_load_deduplicates_by_signature(tmp_path):
    path = tmp_path / "dup.jsonl"
    rec = result_record(catalog.gold(5), "a", "test")
    rec2 = result_record(catalog.gold(5), "b", "test")
    persist_results([rec, rec2], str(path))
    loaded, skipped = load_results(str(path))
    assert len(loaded) == 1 and skipped == 0


def test_load_keeps_distinct_functions_sharing_a_signature(tmp_path):
    # x^3 and x^5 over F_32 differ but share one signature
    spec = catalog.default_field(5)
    x3 = VBF.from_univariate(spec, [(1, 3)])
    x5 = VBF.from_univariate(spec, [(1, 5)])
    assert x3 != x5 and invariant_signature(x3) == invariant_signature(x5)
    path = tmp_path / "collision.jsonl"
    persist_results([result_record(x3, "x3", "test"),
                     result_record(x5, "x5", "test")], str(path))
    loaded, skipped = load_results(str(path))
    assert skipped == 0
    assert [rec.id for rec in loaded] == ["x3", "x5"]
    assert [rec.to_vbf() for rec in loaded] == [x3, x5]


def test_load_merges_multiple_files(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    persist_results([result_record(catalog.gold(3), "a", "t")], str(p1))
    persist_results([result_record(catalog.gold(3), "dup", "t"),
                     result_record(catalog.gold(4), "b", "t")], str(p2))
    loaded, skipped = load_results(str(p1), str(p2))
    assert skipped == 0
    assert [r.id for r in loaded] == ["a", "b"]


def test_load_skips_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = result_record(catalog.gold(4), "g4", "test")
    persist_results([rec], str(path))
    with open(path, "a") as fh:
        fh.write("{not json\n")
        fh.write(json.dumps({"id": "missing fields"}) + "\n")
    loaded, skipped = load_results(str(path))
    assert len(loaded) == 1 and skipped == 2


def test_load_skips_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "bytes.jsonl"
    rec = result_record(catalog.gold(4), "g4", "test")
    persist_results([rec], str(path))
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    loaded, skipped = load_results(str(path))
    assert loaded == [rec] and skipped == 1


def test_persisted_zero_extension_reloads_with_t6_signature(tmp_path):
    from apnkit.extension import zero_extensions

    path = tmp_path / "ext.jsonl"
    exts = zero_extensions(catalog.gold(5))
    persist_results([result_record(t, "ext", "zero-extend", sig)
                     for t, sig in exts], str(path))
    loaded, _ = load_results(str(path))
    want = invariant_signature(catalog.t6()).canonical()
    assert any(rec.signature == want for rec in loaded)


def test_persisted_zero_extension_of_g1_matches_t8_fixture(tmp_path):
    from apnkit.extension import zero_extensions

    path = tmp_path / "ext8.jsonl"
    exts = zero_extensions(catalog.g7(1))
    persist_results([result_record(t, "ext8", "zero-extend", sig)
                     for t, sig in exts], str(path))
    loaded, _ = load_results(str(path))
    want = invariant_signature(catalog.t8(1)).canonical()
    assert [rec.signature for rec in loaded] == [want]


def test_export_graph_empty_and_single_edge():
    from apnkit.trimming import TrimmingGraph

    empty = TrimmingGraph(set(), set())
    dot = export_graph(empty, "dot")
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert "->" not in dot

    graph = trimming_graph([catalog.t6()])
    dot = export_graph(graph, "dot")
    assert dot.count("->") == len(graph.edges) >= 1
    assert export_graph(graph, "dot") == dot  # deterministic
    with pytest.raises(ValueError):
        export_graph(graph, "png")


def test_export_appendix_chain_graph():
    chain = recursive_witness(catalog.gold(4))
    graph = trimming_graph(chain[:-1])  # functions at dims 4 and 3
    jl = [json.loads(line) for line in
          export_graph(graph, "jsonl").strip().splitlines()]
    nodes = [r for r in jl if r["type"] == "node"]
    edges = [r for r in jl if r["type"] == "edge"]
    assert len(nodes) == 3 and len(edges) == 2
    dims = sorted(r["dim"] for r in nodes)
    assert dims == [2, 3, 4]
    for e in edges:
        assert e["src_dim"] == e["dst_dim"] + 1
