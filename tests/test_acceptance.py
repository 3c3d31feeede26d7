"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime. All checks are exact integer comparisons."""

import random
import time

from apnkit import catalog, gf2
from apnkit.extension import (
    build_extension, derivative_matrix, gamma_representatives, gamma_space,
    max_linearity_walsh_profile, r_extension_search, rank_one,
    zero_ext_apn_test, zero_extensions,
)
from apnkit.gf2 import GF2Matrix, default_field, rank, trace_form, trace_gram
from apnkit.ortho import gold_ortho, invariant_signature, ortho_derivative
from apnkit.trimming import (
    SIDES, Hyperplane, TrimDescriptor, apn_trims, descriptor_count,
    recursive_witness, trim, trim_spectrum,
)
from apnkit.vbf import (
    apn_by_moments, is_apn, linearity, random_ea_transform, random_quadratic,
)


class _Clock:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds {self.limit}s")
        return False


def _report(num, clock, detail):
    print(f"criterion {num:02d} PASS ({clock.elapsed:.1f}s) {detail}")


def test_criterion_01_appendix_function_is_recursive():
    with _Clock(120) as clock:
        r = catalog.appendix_r()
        assert r.degree == 2 and is_apn(r)
        chain = recursive_witness(r)
        assert chain is not None
        assert [g.n for g in chain] == [8, 7, 6, 5, 4, 3, 2]
        assert all(is_apn(g) for g in chain)
        # the coordinate-mask restrictions appear as specific trims
        cur = r
        for k in range(8, 2, -1):
            d = TrimDescriptor.canonical(1 << (k - 1), "linear", 1 << (k - 1))
            t = trim(cur, d)
            mask = (1 << (k - 1)) - 1
            assert t.table.tolist() == [int(cur.table[x]) & mask
                                        for x in range(1 << (k - 1))]
            assert is_apn(t)
            cur = t
    _report(1, clock, "appendixA_R quadratic APN with chain 8..2, mask trims reproduce")


def test_criterion_02_gold_ortho_closed_form():
    with _Clock(30) as clock:
        for n in (3, 5, 7):
            spec = default_field(n)
            # trace_gram maps the trace-pairing normal to the bit-pairing one
            to_bit_pairing = trace_gram(spec).lut()
            closed_form = [to_bit_pairing[w] for w in gold_ortho(spec, 1).table]
            computed = ortho_derivative(catalog.gold(n)).table.tolist()
            assert computed == closed_form, f"n={n}"
    _report(2, clock, "ortho(x^3) = x^-3 entry-for-entry under trace pairing, n=3,5,7")


def test_criterion_03_t6_reconstruction():
    with _Clock(30) as clock:
        spec = default_field(5)
        g = catalog.gold(5)
        cols = [gf2.field_pow(spec, 1 << j, 16) ^ (1 << j) for j in range(5)]
        t = build_extension(g, None, GF2Matrix.from_columns(cols, 5),
                            trace_form(spec))
        assert is_apn(t) and linearity(t) == 32
        sigs = {sig for _, sig in zero_extensions(g)}
        assert invariant_signature(t) in sigs
    _report(3, clock, "(x^3, 0, x^16+x, Tr) APN with linearity 32, recovered by zero_extensions")


def test_criterion_04_gold7_not_zero_extendable():
    with _Clock(60) as clock:
        g = catalog.gold(7)
        assert all(gamma_space(g, ell).empty for ell in range(1, 128))
        assert zero_extensions(g) == []
    _report(4, clock, "Gamma empty for all 127 forms over x^3 on 7 bits")


def test_criterion_05_max_linearity_classification_slice():
    sigs = []
    times = []
    for i in (1, 2, 3, 4):
        with _Clock(60) as clock:
            g = catalog.g7(i)
            nonempty = [ell for ell in range(1, 128)
                        if not gamma_space(g, ell).empty]
            assert len(nonempty) == 1
            gs = gamma_space(g, nonempty[0])
            assert len(gs.space.basis) == 14 and gs.size == 1 << 14
            reps = gamma_representatives(gs)
            assert len(reps) == 1
            t = build_extension(g, None, reps[0], nonempty[0])
            assert is_apn(t) and t.degree == 2 and linearity(t) == 128
            sig = invariant_signature(t)
            assert sig == invariant_signature(catalog.t8(i))
            sigs.append(sig)
        times.append(clock.elapsed)
    assert len(set(sigs)) == 4
    clock.elapsed = sum(times)
    _report(5, clock, "G1..G4: one gamma each, |Gamma|=2^14, one rep, four distinct T8 classes")


def test_criterion_06_walsh_profile_counts():
    with _Clock(30) as clock:
        assert max_linearity_walsh_profile(catalog.t6()) == (46, 16, 1)
        for i in (1, 2, 3, 4):
            assert max_linearity_walsh_profile(catalog.t8(i)) == (190, 64, 1)
    _report(6, clock, "T6 -> (46,16,1); T8_1..4 -> (190,64,1)")


def test_criterion_07_theorem_oracle_equivalence():
    with _Clock(300) as clock:
        g = catalog.gold(5)
        rng = random.Random(2024)
        mismatches = 0
        for _ in range(10_000):
            lin = gf2.random_matrix(5, 5, rng)
            ell = rng.randrange(1, 32)
            fast = zero_ext_apn_test(g, lin, ell)
            slow = is_apn(build_extension(g, None, lin, ell))
            mismatches += (fast != slow)
        assert mismatches == 0
    _report(7, clock, "10^4 random (L, ell): ortho condition == DDT oracle, 0 mismatches")


def test_criterion_08_trim_spectrum_ea_invariance():
    with _Clock(600) as clock:
        rng = random.Random(8)
        for f in (catalog.gold(5), catalog.t6(), catalog.g7(1)):
            base = trim_spectrum(f)
            assert base.total == descriptor_count(f.n)
            for _ in range(20):
                other = trim_spectrum(random_ea_transform(f, rng))
                assert other.counts == base.counts
                assert other.total == descriptor_count(f.n)
    _report(8, clock, "20 EA transforms each of x^3/F32, T6, G1: equal multisets")


def test_criterion_09_trim_signature_stability():
    with _Clock(300) as clock:
        g1 = catalog.g7(1)
        rng = random.Random(9)
        for _ in range(50):
            alpha = rng.randrange(1, 128)
            beta = rng.randrange(1, 128)
            side = rng.choice(SIDES)
            base = None
            for _ in range(20):
                eps = 0
                if side == "affine":
                    while True:
                        eps = rng.randrange(1, 128)
                        if gf2.inner_product(alpha, eps) == 1:
                            break
                while True:
                    gamma = rng.randrange(1, 128)
                    if gf2.inner_product(beta, gamma) == 1:
                        break
                sig = invariant_signature(
                    trim(g1, TrimDescriptor(Hyperplane(alpha, side), beta,
                                            eps, gamma)))
                if base is None:
                    base = sig
                assert sig == base
    _report(9, clock, "50 random (H, beta) x 20 random (eps, gamma): one signature each")


def test_criterion_10_fourth_moment_criterion():
    with _Clock(300) as clock:
        for name in catalog.fixture_names():
            f = catalog.fixture(name)
            if f.n == f.m:
                assert apn_by_moments(f) == is_apn(f), name
        rng = random.Random(10)
        for _ in range(200):
            f = random_quadratic(6, 6, rng)
            assert apn_by_moments(f) == is_apn(f)
    _report(10, clock, "moment test == DDT test on fixtures + 200 random quadratics")


def test_criterion_11_r_extension_search_desk_scale():
    with _Clock(600) as clock:
        g = catalog.gold(5)
        stats = {}
        t = r_extension_search(g, rng=random.Random(1), budget=10_000_000,
                               stats=stats)
        assert t is not None and stats["nodes"] <= 10_000_000
        assert t.n == 6 and t.degree == 2 and is_apn(t)
        assert invariant_signature(g) in {s for _, s in apn_trims(t)}
    _report(11, clock, f"seed-1 search found 6-bit APN extension in {stats['nodes']} nodes")


def test_criterion_12_rank_distribution():
    with _Clock(120) as clock:
        rng = random.Random(12)
        cases = []
        g5 = catalog.gold(5)
        for ell in range(1, 32):
            gs = gamma_space(g5, ell)
            if not gs.empty:
                cases.extend((g5, ell, rep) for rep in gamma_representatives(gs))
        for i in (1, 2, 3, 4):
            g = catalog.g7(i)
            ell = next(e for e in range(1, 128) if not gamma_space(g, e).empty)
            cases.extend((g, ell, rep)
                         for rep in gamma_representatives(gamma_space(g, ell)))
        assert cases
        for g, ell, rep in cases:
            n = g.n
            for _ in range(10):
                mu = rng.randrange(1 << n)
                base = rep + derivative_matrix(g, mu)
                ranks = [rank(base + rank_one(nu, ell, n))
                         for nu in range(1 << n)]
                assert ranks.count(n) == 1 << (n - 1)
                assert ranks.count(n - 1) == 1 << (n - 1)
    _report(12, clock, f"rank split 2^(n-1)/2^(n-1) over nu for {len(cases)} representatives")


def test_criterion_13_gold6_has_no_apn_trims():
    with _Clock(60) as clock:
        spec = trim_spectrum(catalog.gold(6))
        assert spec.total == descriptor_count(6)
        assert spec.apn_signatures() == []
    _report(13, clock, "x^3 on 6 bits: trim spectrum contains no APN class")
