"""The three workloads: their inputs, one round of timed library calls,
the checks on every output, and the metrics read from the call records.

Every input is built from fixtures, ``VBF.from_univariate`` and seeded
``random_ea_transform``; round r of seed s uses EA-copies drawn from
``random.Random(f"{workload}:{s}:{r}:{class}")``, so a seed gives the same
inputs on every commit and no round repeats the inputs of another (the
ortho-derivative cache would otherwise serve later rounds).
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import oracle

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# quadratic APN classes of the 7-bit trim-spectrum inputs, picked by seed
QUAD_CLASSES = ("G1", "G2", "G3", "G4", "gold7")
# appendixA_R restricted to y = 0 with output bit 7 dropped: its one APN
# trim class (apn_trims(appendixA_R) takes ~40 s, too long for a round)
R7_TRIM = (128, "linear", 128)
# r-extension search: fixed searches on G1 (the per-node cost varies 18x
# with the sampled r, so a seeded r would make the round time depend on
# the seed) and fixed gold5 seeds (nodes to success vary from 89 to
# 273,355 across seeds 1-29). Every call takes 0.1-0.16 s, so a run holds
# some 15 samples of each and the least of them is a steady figure. Eight
# searches keep the DFS at about 60% of a round beside the five
# 0-extension calls.
G1_BUDGET = 1_000
G1_RNG_SEEDS = (0, 1, 2, 4, 6)        # seeds 3, 5 and 7 end in ~0.01 s
GOLD5_SEEDS = (3, 14, 22)             # 3,434, 3,231 and 2,726 nodes


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Call:
    """One timed library call and what the checks need to judge it."""

    kind: str
    round: int
    seconds: float
    args: tuple
    meta: dict
    out: Any = None
    error: Optional[str] = None
    stats: dict = field(default_factory=dict)


def inverse7(lib):
    """x^126 = x^-1 over F_2^7: APN, degree 6, never quadratic."""
    return lib.vbf.VBF.from_univariate(lib.gf2.default_field(7), [(1, 126)])


def r7(lib):
    alpha, side, beta = R7_TRIM
    d = lib.trimming.TrimDescriptor.canonical(alpha, side, beta)
    return lib.trimming.trim(lib.catalog.fixture("appendixA_R"), d)


def spectrum_of_program(spec) -> dict:
    return {oracle.signature_of_program(s): c for s, c in spec.counts.items()}


def random_descriptor(lib, n: int, rng: random.Random):
    """A uniformly drawn valid (H, beta, epsilon, gamma), not the canonical
    epsilon and gamma the batched table path uses."""
    ip = lambda a, b: bin(a & b).count("1") & 1
    alpha = rng.randrange(1, 1 << n)
    side = rng.choice(("linear", "affine"))
    eps = 0
    if side == "affine":
        eps = rng.choice([e for e in range(1 << n) if ip(alpha, e)])
    beta = rng.randrange(1, 1 << n)
    gamma = rng.choice([g for g in range(1 << n) if ip(beta, g)])
    t = lib.trimming
    return t.TrimDescriptor(t.Hyperplane(alpha, side), beta, eps, gamma)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def least(xs):
    """The least of repeated timings, as timeit advises: other tenants of a
    shared host slow a run's median by up to 60% for minutes at a time,
    while the fastest repeat moves far less."""
    return min(xs, default=0.0)


def rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def _check_apn_function(lib, t, n: int, what: str) -> None:
    require(t.n == n and t.m == n, f"{what}: dimension {t.n}x{t.m}, want {n}")
    require(oracle.is_apn(t.table, n), f"{what}: reference DDT says not APN")
    require(bool(lib.vbf.apn_by_moments(t)), f"{what}: fourth-moment test says not APN")


class Workload:
    name = ""
    max_rounds = 16

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def ea_copies(self, bases: dict) -> list[dict]:
        """For every round, a fresh EA-copy of every base function."""
        ea = self.lib.vbf.random_ea_transform
        return [{cls: ea(f, random.Random(f"{self.name}:{self.seed}:{r}:{cls}"))
                 for cls, f in bases.items()}
                for r in range(self.max_rounds)]

    def run_round(self, r: int, call: Callable) -> None:
        raise NotImplementedError

    def check(self, c: Call) -> None:
        raise NotImplementedError

    def metrics(self, calls: list[Call]) -> tuple[float, dict]:
        """(least time of the headline call, {detail metric: (value, unit)})."""
        raise NotImplementedError


class TrimSpectrumWorkload(Workload):
    """The quadratic-reduced trim spectrum of one quadratic APN class and
    the full trim spectrum of x^126, both 7-bit."""

    name = "trim-spectrum"
    samples_per_call = 24

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.quad = QUAD_CLASSES[seed % len(QUAD_CLASSES)]
        bases = {self.quad: lib.catalog.fixture(self.quad), "inv7": inverse7(lib)}
        self.inputs = self.ea_copies(bases)

    def run_round(self, r, call):
        ts = self.lib.trimming.trim_spectrum
        for cls, f in self.inputs[r].items():
            call("trim_spectrum", {"cls": cls}, ts, f, quadratic_reduced=cls != "inv7")

    def check(self, c):
        spec, f, cls = c.out, c.args[0], c.meta["cls"]
        n = f.n
        reduced = cls != "inv7"
        require(spec.n == n and spec.quadratic_reduced == reduced,
                f"{cls}: wrong spectrum kind")
        size = ((1 << n) - 1) ** 2
        require(spec.total == (size if reduced else 2 * size),
                f"{cls}: {spec.total} trims, want {'' if reduced else '2'}(2^n-1)^2")
        counts = spectrum_of_program(spec)
        # EA-invariance: the copy's spectrum equals the reference spectrum
        # of the class, computed trim by trim with the plain-numpy code. On
        # a quadratic function each affine-side trim is EA-equivalent to its
        # linear-side twin, so the full multiset is twice the reduced one.
        full = {s: (2 * k if reduced else k) for s, k in counts.items()}
        require(oracle.multiset_digest(full) == REFERENCE[cls]["digest"],
                f"{cls}: spectrum differs from the class reference")
        rng = random.Random(f"sample:{cls}:{c.round}:{self.seed}")
        for _ in range(self.samples_per_call):
            d = random_descriptor(self.lib, n, rng)
            t = self.lib.trimming.trim(f, d)
            require(oracle.signature(t.table, n - 1) in counts,
                    f"{cls}: sampled trim {d} is not in the spectrum")

    def metrics(self, calls):
        ok = [c for c in calls if c.error is None]
        full = [c.seconds for c in ok if not c.out.quadratic_reduced]
        reduced = [c.seconds for c in ok if c.out.quadratic_reduced]
        trims_per_s = rate(sum(c.out.total for c in ok), sum(c.seconds for c in ok))
        # the headline is x^126's full spectrum: no quadratic-only path
        # applies to it, so it should stay flat when only those get faster
        detail = {"spectrum_s_p50": (median(full), "s"),
                  "reduced_spectrum_s_p50": (median(reduced), "s"),
                  "trims_per_s": (trims_per_s, "trims/s")}
        return least(full), detail


class ApnTrimsWorkload(Workload):
    """APN-trim filtering and recursive chains of quadratic APN functions."""

    name = "apn-trims"

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        cat = lib.catalog
        self.gq = f"G{1 + seed % 4}"
        bases = {"gold7": cat.fixture("gold7"), "R7": r7(lib),
                 self.gq: cat.fixture(self.gq), "T6": cat.fixture("T6")}
        self.inputs = self.ea_copies(bases)
        # recursive_witness of an R7 copy takes 0.04-1.9 s depending on the
        # copy, so its copies depend on the round only, not on the seed
        self.witness_r7 = [lib.vbf.random_ea_transform(
            bases["R7"], random.Random(f"{self.name}:witness:{r}"))
            for r in range(self.max_rounds)]

    def run_round(self, r, call):
        t = self.lib.trimming
        for cls, f in self.inputs[r].items():
            call("apn_trims", {"cls": cls}, t.apn_trims, f)
        for cls in ("gold7", "R7", "T6"):
            f = self.witness_r7[r] if cls == "R7" else self.inputs[r][cls]
            call("recursive_witness", {"cls": cls}, t.recursive_witness, f)

    def check(self, c):
        f, cls = c.args[0], c.meta["cls"]
        n = f.n
        if c.kind == "apn_trims":
            sigs = set()
            for d, sig in c.out:
                t = self.lib.trimming.trim(f, d)
                _check_apn_function(self.lib, t, n - 1, f"{cls} trim {d}")
                s = oracle.signature(t.table, n - 1)
                require(s == oracle.signature_of_program(sig),
                        f"{cls}: trim {d} has another signature than reported")
                sigs.add(s)
            require(len(sigs) == len(c.out), f"{cls}: repeated APN trim signature")
            ref = REFERENCE[cls]
            require(oracle.multiset_digest(dict.fromkeys(sigs, 1)) == ref["apn_digest"],
                    f"{cls}: APN trim classes differ from the class reference")
            if cls == "T6":
                # T6(x, 0) = (gold5(x), 0), so gold5's class is an APN trim
                gold5 = oracle.signature(self.lib.catalog.fixture("gold5").table, 5)
                require(gold5 in sigs, "T6: gold5 is not among its APN trims")
            return
        chain = c.out
        require(chain is not None, f"{cls}: no recursive chain found")
        require([g.n for g in chain] == list(range(n, 1, -1)),
                f"{cls}: chain dimensions {[g.n for g in chain]}")
        require(chain[0] == f, f"{cls}: chain does not start at the input")
        for g in chain:
            _check_apn_function(self.lib, g, g.n, f"{cls} chain link n={g.n}")

    def metrics(self, calls):
        ok = [c for c in calls if c.error is None]
        at = [c for c in ok if c.kind == "apn_trims"]
        rw = [c for c in ok if c.kind == "recursive_witness"]
        trims = sum(2 * ((1 << c.args[0].n) - 1) ** 2 for c in at)
        trims_per_s = rate(trims, sum(c.seconds for c in at))
        # the headline call is the 7-bit one; T6's 6-bit call is 15x cheaper
        at7 = [c.seconds for c in at if c.args[0].n == 7]
        detail = {"apn_trims_s_p50": (median(at7), "s"),
                  "witness_s_p50": (median([c.seconds for c in rw]), "s"),
                  "trims_per_s": (trims_per_s, "trims/s")}
        return least(at7), detail


class ExtendWorkload(Workload):
    """r-extension search and 0-extension classification."""

    name = "extend"
    # rounds of about 1.8 s; enough fresh inputs for a 60-s run
    max_rounds = 64

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        cat = lib.catalog
        self.g1 = cat.fixture("G1")
        self.gold5 = cat.fixture("gold5")
        bases = {c: cat.fixture(c) for c in QUAD_CLASSES}
        self.inputs = self.ea_copies(bases)
        self._t8_sig: dict[str, tuple] = {}

    def run_round(self, r, call):
        ext = self.lib.extension
        for s in G1_RNG_SEEDS:
            call("r_extension_search", {"cls": "G1", "search_seed": s},
                 ext.r_extension_search, self.g1, rng=random.Random(s),
                 budget=G1_BUDGET, stats={})
        for s in GOLD5_SEEDS:
            call("r_extension_search", {"cls": "gold5", "search_seed": s},
                 ext.r_extension_search, self.gold5, rng=random.Random(s), stats={})
        for cls, f in self.inputs[r].items():
            call("zero_extensions", {"cls": cls}, ext.zero_extensions, f)

    def t8_signature(self, cls: str) -> tuple:
        if cls not in self._t8_sig:
            t8 = self.lib.catalog.t8(int(cls[1:]))
            self._t8_sig[cls] = oracle.signature(t8.table, 8)
        return self._t8_sig[cls]

    def _check_extension(self, t, g, what: str) -> None:
        n = g.n
        _check_apn_function(self.lib, t, n + 1, what)
        require(oracle.degree(t.table, n + 1) == 2, f"{what}: degree is not 2")
        low = t.table[: 1 << n] & ((1 << n) - 1)
        require((low == g.table).all(), f"{what}: T(x, 0) is not (G(x), r(x))")

    def check(self, c):
        g, cls = c.args[0], c.meta["cls"]
        if c.kind == "r_extension_search":
            if cls == "G1":
                if c.out is None:
                    require(c.stats["nodes"] == G1_BUDGET,
                            f"G1: {c.stats['nodes']} nodes, want the budget {G1_BUDGET}")
                else:
                    require(c.stats["nodes"] <= G1_BUDGET, "G1: budget exceeded")
                    self._check_extension(c.out, g, "G1 extension")
                return
            require(c.out is not None, f"gold5 seed {c.meta['search_seed']}: nothing found")
            self._check_extension(c.out, g, f"gold5 seed {c.meta['search_seed']}")
            return
        n = g.n
        if cls == "gold7":
            require(c.out == [], "gold7: has 0-extensions, want none")
            return
        require(len(c.out) == 1, f"{cls}: {len(c.out)} classes, want 1")
        t, sig = c.out[0]
        _check_apn_function(self.lib, t, n + 1, f"{cls} 0-extension")
        w = oracle.walsh(t.table, n + 1, n + 1)[1:]
        mags = [frozenset(np.unique(np.abs(row)).tolist()) for row in w]
        require(int(np.abs(w).max()) == 1 << n, f"{cls}: linearity is not 2^n")
        bent, semi, top = 1 << ((n + 1) // 2), 1 << ((n + 3) // 2), 1 << n
        profile = (mags.count(frozenset({bent})), mags.count(frozenset({0, semi})),
                   mags.count(frozenset({0, top})))
        require(profile == (190, 64, 1), f"{cls}: Walsh profile {profile}")
        s = oracle.signature(t.table, n + 1)
        require(s == oracle.signature_of_program(sig), f"{cls}: reported signature is wrong")
        require(s == self.t8_signature(cls), f"{cls}: class differs from T8_{cls[1:]}")

    def metrics(self, calls):
        ok = [c for c in calls if c.error is None]
        searches = [c for c in ok if c.kind == "r_extension_search"]
        ze = [c for c in ok if c.kind == "zero_extensions"]
        g1 = [c.seconds for c in searches
              if c.meta["cls"] == "G1" and c.meta["search_seed"] == G1_RNG_SEEDS[0]]
        g5 = [c.seconds for c in searches if c.meta["cls"] == "gold5"]
        nodes_per_s = rate(sum(c.stats["nodes"] for c in searches),
                           sum(c.seconds for c in searches))
        ze_per_s = rate(len(ze), sum(c.seconds for c in ze))
        detail = {"dfs_nodes_per_s": (nodes_per_s, "nodes/s"),
                  "g1_search_s_p50": (median(g1), "s"),
                  "time_to_extension_s_p50": (median(g5), "s"),
                  "zero_ext_per_s": (ze_per_s, "functions/s")}
        # the headline is the round's eight searches, each at its least
        # time: the least of one 0.1-s search alone moved by 20% between runs
        by_search: dict = {}
        for c in searches:
            by_search.setdefault((c.meta["cls"], c.meta["search_seed"]), []).append(c.seconds)
        return sum(least(v) for v in by_search.values()), detail


WORKLOADS = {w.name: w for w in (TrimSpectrumWorkload, ApnTrimsWorkload, ExtendWorkload)}
