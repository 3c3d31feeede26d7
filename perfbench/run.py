"""apnkit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload trim-spectrum --seed 1 --seconds 30 --trace 0

Run from the repository root; apnkit is imported from ./src, never from an
installed copy. The run

1. times set-up (import, fixture load and verification, input generation)
   in fresh interpreters, a warm-up and then SETUP_REPEATS timed ones;
2. sets up in process and runs whole rounds of the workload's library calls
   until the next round would end after --seconds (at least one round);
3. checks every call's output against oracle.py and reference.json;
4. prints a detail line (per-call metrics, versions, nproc, git sha, src/
   line count) and, as the last line, the result object.

Call times are reported by their least value over the run's untraced
rounds (workloads.least), set-up by the median of its samples.

With --trace 1 the rounds alternate traced and untraced, the layer metrics
are averaged over the traced rounds, and the tracing overhead is the
difference between the mean traced and the mean untraced round.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 9

# per-layer metric -> (source, unit); sources: self.<layer> (self seconds),
# count.<key>, ratio.<num>/<den>, cache.<hits|misses>, fixture, trace.<key>
PER_LAYER = {
    "catalog.fixture.s": ("fixture", "s"),
    "trimming.tables.s": ("self.trimming.tables", "s"),
    "trimming.trims": ("count.trimming.trims", "count"),
    "trimming.trim_spectrum.self_s": ("self.api.trim_spectrum", "s"),
    "trimming.apn_trims.self_s": ("self.api.apn_trims", "s"),
    "trimming.recursive_witness.self_s": ("self.api.recursive_witness", "s"),
    "ortho.classify.s": ("self.ortho.classify", "s"),
    "ortho.classify.tables": ("count.ortho.classify.tables", "count"),
    "ortho.walsh_hist.s": ("self.ortho.walsh_hist", "s"),
    "ortho.walsh_hist.tables": ("count.ortho.walsh_hist.tables", "count"),
    "ortho.apn_kept_ratio": ("ratio.ortho.classify.apn_rows/ortho.classify.tables", "ratio"),
    "ortho.ortho_derivative.s": ("self.ortho.ortho_derivative", "s"),
    "ortho.ortho_derivative.cache_hits": ("cache.hits", "count"),
    "ortho.ortho_derivative.cache_misses": ("cache.misses", "count"),
    "ortho.invariant_signature.s": ("self.ortho.invariant_signature", "s"),
    "vbf.ddt_hist.s": ("self.vbf.ddt_hist", "s"),
    "vbf.ddt_hist.tables": ("count.vbf.ddt_hist.tables", "count"),
    "vbf.degree.s": ("self.vbf.degree", "s"),
    "vbf.spectra.s": ("self.vbf.spectra", "s"),
    "vbf.is_apn.s": ("self.vbf.is_apn", "s"),
    "vbf.linearity.s": ("self.vbf.linearity", "s"),
    "extension.r_extension_search.self_s": ("self.api.r_extension_search", "s"),
    "extension.zero_extensions.self_s": ("self.api.zero_extensions", "s"),
    "extension.dfs.s": ("self.extension.dfs", "s"),
    "extension.dfs.nodes": ("count.extension.dfs.nodes", "count"),
    "extension.dfs.restarts": ("count.extension.dfs.restarts", "count"),
    "extension.sample_r.s": ("self.extension.sample_r", "s"),
    "extension.gamma_space.s": ("self.extension.gamma_space", "s"),
    "extension.gamma_space.nonempty_ratio":
        ("ratio.extension.gamma_space.nonempty/extension.gamma_space.calls", "ratio"),
    "extension.gamma_representatives.s": ("self.extension.gamma_representatives", "s"),
    "extension.build_extension.s": ("self.extension.build_extension", "s"),
    "gf2.solve_affine.s": ("self.gf2.solve_affine", "s"),
    "gf2.solve_affine.calls": ("count.gf2.solve_affine.calls", "count"),
    "trace.round_s": ("trace.round_s", "s"),
    "trace.overhead_s": ("trace.overhead_s", "s"),
    "trace.spans": ("trace.spans", "count"),
}


class LibraryMissing(Exception):
    pass


def load_library():
    """apnkit from this checkout's src/, as a namespace of its modules."""
    if not (SRC / "apnkit" / "__init__.py").is_file():
        raise LibraryMissing(f"no apnkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import apnkit
    from apnkit import catalog, extension, gf2, ortho, trimming, vbf
    if Path(apnkit.__file__).resolve().parent != (SRC / "apnkit").resolve():
        raise LibraryMissing(f"imported apnkit from {apnkit.__file__}, not {SRC}")
    return argparse.Namespace(apnkit=apnkit, catalog=catalog, extension=extension,
                              gf2=gf2, ortho=ortho, trimming=trimming, vbf=vbf)


def setup_once(workload: str, seed: int):
    """Import, load fixtures and build inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    lib = load_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](lib, seed)
    return wl, time.perf_counter() - t0


def time_setup_in_children(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = []
    for i in range(1 + SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        if i:                                     # the first one warms caches
            out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "apnkit").glob("*.py")))
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_sha": sha, "src_lines": src_lines}


def run_rounds(wl, seconds: float, tracer, trace: bool):
    """Whole rounds until the next one would end past the deadline.

    Returns (calls, [(round seconds, traced)], cache deltas of traced rounds).
    """
    from workloads import Call

    calls: list[Call] = []
    cur = {"round": 0}

    def call(kind, meta, fn, *args, **kwargs):
        stats = kwargs.get("stats", {})
        c = Call(kind, cur["round"], 0.0, args, meta, stats=stats)
        t0 = time.perf_counter()
        try:
            c.out = tracer.span(f"api.{kind}", fn, *args, **kwargs)
        except Exception:                          # a failed operation
            c.error = traceback.format_exc(limit=-2)
        c.seconds = time.perf_counter() - t0
        if stats:
            tracer.add("extension.dfs.nodes", stats["nodes"])
            tracer.add("extension.dfs.restarts", stats["restarts"])
        calls.append(c)
        return c.out

    cache = tracer.originals.get("ortho._ortho_cached")
    hits = misses = 0
    rounds: list[tuple[float, bool]] = []
    deadline = time.perf_counter() + seconds
    # in trace mode a step is a traced round then an untraced one
    pattern = (True, False) if trace else (False,)
    while cur["round"] + len(pattern) <= wl.max_rounds:
        t_step = time.perf_counter()
        for traced in pattern:
            tracer.active = traced
            info0 = cache.cache_info() if traced and cache else None
            t0 = time.perf_counter()
            wl.run_round(cur["round"], call)
            rounds.append((time.perf_counter() - t0, traced))
            tracer.active = False
            if info0 is not None:
                info1 = cache.cache_info()
                hits += info1.hits - info0.hits
                misses += info1.misses - info0.misses
            cur["round"] += 1
        step = time.perf_counter() - t_step
        if time.perf_counter() + step > deadline:
            break
    return calls, rounds, {"hits": hits, "misses": misses}


def round_least(calls) -> float:
    """A round's time with each of its calls at its least time over the
    run's rounds (a call is told apart by kind and meta)."""
    slots: dict = {}
    for c in calls:
        if c.error is None:
            slots.setdefault((c.kind, json.dumps(c.meta, sort_keys=True)), []).append(c.seconds)
    from workloads import least
    return sum(least(v) for v in slots.values())


def layer_metrics(tracer, rounds, cache, fixture_s, setup_spans) -> dict:
    traced = [s for s, t in rounds if t]
    plain = [s for s, t in rounds if not t]
    k = max(1, len(traced))
    values = {
        "fixture": fixture_s,
        "trace.round_s": statistics.fmean(traced) if traced else 0.0,
        "trace.overhead_s": (statistics.fmean(traced) - statistics.fmean(plain)
                             if traced and plain else 0.0),
        "trace.spans": (len(tracer.spans) - setup_spans) / k,
        "cache.hits": cache["hits"] / k,
        "cache.misses": cache["misses"] / k,
    }
    out = {}
    for name, (src, unit) in PER_LAYER.items():
        kind, _, key = src.partition(".")
        if src in values:
            v = values[src]
        elif kind == "self":
            v = tracer.self_s.get(key, 0.0) / k
        elif kind == "count":
            v = tracer.counts.get(key, 0.0) / k
        elif kind == "ratio":
            num, den = key.split("/")
            d = tracer.counts.get(den, 0.0)
            v = tracer.counts.get(num, 0.0) / d if d else 0.0
        else:
            raise KeyError(src)
        out[name] = {"value": v, "unit": unit}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print it")
    args = p.parse_args(argv)

    if args.setup_only:
        _, secs = setup_once(args.workload, args.seed)
        print(json.dumps({"setup_s": secs}))
        return 0

    sys.path.insert(0, str(HERE))
    from tracing import Tracer
    from workloads import WORKLOADS, CheckFailed
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    lib = load_library()
    setup_samples = time_setup_in_children(args.workload, args.seed)
    tracer = Tracer()
    if args.trace:
        tracer.install(lib.apnkit)
        tracer.active = True
    wl, _ = setup_once(args.workload, args.seed)
    tracer.active = False
    fixture_s = sum(end - start for _, parent, name, start, end in tracer.spans
                    if name == "catalog.fixture" and parent == 0)
    tracer.self_s.clear()
    tracer.counts.clear()
    setup_spans = len(tracer.spans)

    calls, rounds, cache = run_rounds(wl, args.seconds, tracer, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    correct = True
    failed = 0
    problems = []
    for c in calls:
        if c.error is not None:
            failed += 1
            problems.append(f"{c.kind}[{c.meta}] raised:\n{c.error}")
            continue
        try:
            wl.check(c)
        except CheckFailed as exc:
            failed += 1
            correct = False
            problems.append(f"{c.kind}[{c.meta}] round {c.round}: {exc}")
    for msg in problems:
        print(f"check: {msg}", file=sys.stderr)

    plain = {i for i, (_, traced) in enumerate(rounds) if not traced}
    plain_calls = [c for c in calls if c.round in plain]
    call_s_min, detail = wl.metrics(plain_calls)
    detail["round_s_p50"] = (statistics.median(s for s, traced in rounds if not traced), "s")
    end_to_end = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "round_s_min": {"value": round_least(plain_calls), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "call_s_min": {"value": call_s_min, "unit": "s"},
    }
    metrics = (layer_metrics(tracer, rounds, cache, fixture_s, setup_spans) if args.trace
               else end_to_end)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "calls": len(calls),
        "round_s": [round(s, 4) for s, _ in rounds],
        "call_s": [[c.kind, c.meta.get("cls"), c.round, round(c.seconds, 4)] for c in calls],
        "setup_samples_s": setup_samples,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "end_to_end": end_to_end, "env": environment(),
        "missing_boundaries": tracer.missing,
    }
    result = {"correct": correct, "attempted": len(calls), "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({**info, "result": result}, indent=1) + "\n")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
