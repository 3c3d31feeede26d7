"""Command-line entry point.

Subcommands wrap the library pipelines with deterministic, scriptable
output: one key=value line per reported quantity, stable ordering, and
exit codes 0 (success, including found=0), 1 (usage or parse errors) and
2 (internal invariant violations).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import catalog, extension, trimming
from .ortho import invariant_signature, spectrum_str
from .vbf import extended_walsh_spectrum, differential_spectrum


def _load_record(token: str) -> catalog.FunctionRecord:
    """The function ``token`` names: ``fixture:NAME`` or a function file."""
    if token.startswith("fixture:"):
        name = token.split(":", 1)[1]
        return catalog.record_from_vbf(catalog.fixture(name), name)
    with open(token, encoding="utf-8") as fh:
        return catalog.parse_function(fh.read())


def cmd_analyze(args) -> int:
    f = _load_record(args.input).to_vbf()
    sig = invariant_signature(f) if f.n == f.m else None
    ds = sig.diff_spectrum if sig else differential_spectrum(f)
    ews = sig.walsh_spectrum if sig else extended_walsh_spectrum(f)
    report = {
        "n": f.n, "m": f.m,
        "degree": sig.degree if sig else f.degree,
        "apn": sig.apn if sig else False,
        "linearity": ews[-1][0],                    # the top |Walsh| value
        "differential_spectrum": spectrum_str(ds),
        "extended_walsh_spectrum": spectrum_str(ews),
    }
    if sig:
        report["signature"] = sig.canonical()
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(" ".join(f"{k}={str(v).lower() if isinstance(v, bool) else v}"
                       for k, v in report.items() if k != "signature"))
        if "signature" in report:
            print(f"signature={report['signature']}")
    return 0


def cmd_trim_spectrum(args) -> int:
    f = _load_record(args.input).to_vbf()
    spec = trimming.trim_spectrum(f, args.quadratic_reduced, args.parallelism)
    apn_sigs = spec.apn_signatures()
    print(f"trims={spec.total} distinct={spec.distinct()} apn_trims={len(apn_sigs)}")
    for sig in apn_sigs:
        print(f"apn_signature={sig.canonical()}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            for sig in sorted(spec.counts, key=lambda s: s.canonical()):
                fh.write(json.dumps({"signature": sig.canonical(),
                                     "multiplicity": spec.counts[sig]}) + "\n")
    return 0


def cmd_trim_graph(args) -> int:
    funcs = [_load_record(tok).to_vbf() for tok in args.inputs]
    graph = trimming.trimming_graph(funcs)
    print(f"nodes={len(graph.nonisolated())} edges={len(graph.edges)}")
    base = args.output
    with open(base + ".dot", "w", encoding="utf-8") as fh:
        fh.write(catalog.export_graph(graph, "dot"))
    with open(base + ".jsonl", "w", encoding="utf-8") as fh:
        fh.write(catalog.export_graph(graph, "jsonl"))
    return 0


def cmd_recursive(args) -> int:
    f = _load_record(args.input).to_vbf()
    chain = trimming.recursive_witness(f)
    if chain is None:
        print("found=false")
        return 0
    print(f"found=true chain_dims={','.join(str(g.n) for g in chain)}")
    for g in chain:
        print(catalog.serialize_record(
            catalog.record_from_vbf(g, f"chain_n{g.n}")))
    return 0


def cmd_zero_extend(args) -> int:
    g = _load_record(args.input).to_vbf()
    results = extension.zero_extensions(g)
    print(f"found={len(results)}")
    for idx, (t, sig) in enumerate(results):
        # the top |Walsh| value, which zero_extensions checked is 2^n
        print(f"extension={idx} linearity={sig.walsh_spectrum[-1][0]} signature={sig.canonical()}")
    if args.output:
        recs = [catalog.result_record(t, f"zeroext_{idx}", "zero-extend", sig)
                for idx, (t, sig) in enumerate(results)]
        catalog.persist_results(recs, args.output)
    return 0


def cmd_r_extend(args) -> int:
    g = _load_record(args.input).to_vbf()
    rng = random.Random(args.seed)
    stats: dict = {}
    t = extension.r_extension_search(
        g, rng=rng, budget=args.budget, max_restarts=args.restarts, stats=stats)
    found = 0 if t is None else 1
    print(f"found={found} nodes={stats['nodes']} restarts={stats['restarts']} seed={args.seed}")
    if t is not None:
        sig = invariant_signature(t)
        print(f"extension_signature={sig.canonical()}")
        print(catalog.serialize_record(catalog.record_from_vbf(t, "r_extension")))
        if args.output:
            catalog.persist_results(
                [catalog.result_record(t, "r_extension", "r-extend", sig)],
                args.output)
    return 0


def cmd_convert(args) -> int:
    rec = _load_record(args.input)
    if args.to == "lut" and rec.source != "lut":
        rec = catalog.record_from_vbf(rec.to_vbf(), rec.id)
    elif args.to == "uni" and rec.source != "uni":
        raise ValueError("conversion to univariate form is not supported")
    text = catalog.serialize_record(rec)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors, subcommands' too, raise ValueError, so main exits 1."""
    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="apnkit",
        description="Analyze vectorial Boolean functions and construct APN "
                    "functions by trimming and one-dimension extension.")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="degree/APN/linearity/spectra report")
    a.add_argument("input", help="function file or fixture:<name>")
    a.add_argument("--json", action="store_true")
    a.set_defaults(fn=cmd_analyze)

    ts = sub.add_parser("trim-spectrum", help="full trim spectrum summary")
    ts.add_argument("input")
    ts.add_argument("--quadratic-reduced", action="store_true")
    ts.add_argument("--parallelism", "-j", type=int, default=1)
    ts.add_argument("--output", "-o")
    ts.set_defaults(fn=cmd_trim_spectrum)

    tg = sub.add_parser("trim-graph", help="trimming graph over many inputs")
    tg.add_argument("inputs", nargs="+")
    tg.add_argument("--output", "-o", required=True,
                    help="basename for .dot and .jsonl outputs")
    tg.set_defaults(fn=cmd_trim_graph)

    rc = sub.add_parser("recursive", help="chain of APN trims down to dim 2")
    rc.add_argument("input")
    rc.set_defaults(fn=cmd_recursive)

    ze = sub.add_parser(
        "zero-extend", help="classify 0-extensions",
        description="Classify the maximum-linearity APN 0-extensions of a "
        "quadratic APN function. found= counts distinct invariant signatures, "
        "with one extension printed for each; as different EA-classes can "
        "share a signature, it is a lower bound on the number of EA-classes.")
    ze.add_argument("input")
    ze.add_argument("--output", "-o")
    ze.set_defaults(fn=cmd_zero_extend)

    re_ = sub.add_parser("r-extend", help="randomized r-extension search")
    re_.add_argument("input")
    re_.add_argument("--seed", type=int, default=0)
    re_.add_argument("--budget", type=int, default=10_000_000)
    re_.add_argument("--restarts", type=int, default=None)
    re_.add_argument("--output", "-o")
    re_.set_defaults(fn=cmd_r_extend)

    cv = sub.add_parser("convert", help="parse and re-serialize a function")
    cv.add_argument("input", help="function file or fixture:<name>")
    cv.add_argument("--to", choices=("lut", "uni"), default="lut")
    cv.add_argument("--output", "-o")
    cv.set_defaults(fn=cmd_convert)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
