import dataclasses
import random

import numpy as np
import pytest

from apnkit import catalog, extension, gf2, ortho, vbf
from apnkit.cli import main
from apnkit.extension import (
    ExtensionSpec, build_extension, canonical_form_check, derivative_matrix,
    gamma_representatives, gamma_space, matrix_from_vec,
    max_linearity_walsh_profile, r_extension_search, rank_one,
    sample_quadratic_r, vec_from_matrix, zero_ext_apn_test, zero_extensions,
)
from apnkit.gf2 import GF2Matrix, default_field, inner_product, rank
from apnkit.ortho import invariant_signature, ortho_derivative
from apnkit.trimming import apn_trims
from apnkit.vbf import (VBF, anf_and_degree, is_apn, linearity, random_ea_transform,
                        random_quadratic)
from test_gf2 import _solve_affine_by_loop


def _l16_matrix():
    spec = default_field(5)
    cols = [gf2.field_pow(spec, 1 << j, 16) ^ (1 << j) for j in range(5)]
    return GF2Matrix.from_columns(cols, 5)


def test_build_extension_restricts_to_g():
    g = catalog.gold(5)
    t = build_extension(g, None, _l16_matrix(), gf2.trace_form(default_field(5)))
    for x in range(32):
        assert t(x) == g(x)          # y = 0 block, last output bit zero
    assert t.n == t.m == 6


def test_build_extension_zero_tuple_never_apn():
    g = catalog.gold(4)
    t = build_extension(g, None, GF2Matrix.zeros(4, 4), 0)
    for x in range(16):
        assert t(x) == t(x | 16)
    assert not is_apn(t)


def test_extension_spec_validation():
    g = catalog.gold(4)
    with pytest.raises(ValueError):
        ExtensionSpec(g, None, GF2Matrix.zeros(3, 3), 0)
    with pytest.raises(ValueError):
        ExtensionSpec(g, VBF.constant(3, 1, 0), GF2Matrix.zeros(4, 4), 0)
    with pytest.raises(ValueError):
        ExtensionSpec(g, None, GF2Matrix.zeros(4, 4), 16)


def test_t6_reconstruction():
    g = catalog.gold(5)
    t = build_extension(g, None, _l16_matrix(), gf2.trace_form(default_field(5)))
    assert is_apn(t) and linearity(t) == 32 and t.degree == 2
    assert t == catalog.t6()


def test_zero_ext_apn_test_examples():
    g = catalog.gold(5)
    tr = gf2.trace_form(default_field(5))
    assert zero_ext_apn_test(g, _l16_matrix(), tr)
    assert not zero_ext_apn_test(g, GF2Matrix.zeros(5, 5), tr)
    with pytest.raises(ValueError):
        zero_ext_apn_test(g, _l16_matrix(), 0)
    with pytest.raises(ValueError):
        zero_ext_apn_test(VBF.from_univariate(default_field(5), [(1, 7)]),
                          _l16_matrix(), tr)
    # an L of the wrong size is rejected as build_extension rejects it
    for size in (3, 7):
        lin = GF2Matrix.identity(size)
        with pytest.raises(ValueError, match="L must be n x n"):
            build_extension(g, None, lin, 1)
        with pytest.raises(ValueError, match="L must be n x n"):
            zero_ext_apn_test(g, lin, 1)
    with pytest.raises(ValueError, match="ell out of range"):
        zero_ext_apn_test(g, _l16_matrix(), 32)
    # a G that is not n -> n bits is rejected, whatever its degree
    for non_square in (random_quadratic(5, 4, random.Random(3)), VBF.constant(5, 4, 0)):
        with pytest.raises(ValueError, match="G must have n = m"):
            zero_ext_apn_test(non_square, GF2Matrix.identity(5), 1)


def test_zero_ext_agrees_with_direct_ddt():
    g = catalog.gold(5)
    rng = random.Random(0)
    for _ in range(200):
        lin = gf2.random_matrix(5, 5, rng)
        ell = rng.randrange(1, 32)
        assert zero_ext_apn_test(g, lin, ell) == \
            is_apn(build_extension(g, None, lin, ell))


def _gamma_members(gs, k=None):
    """The matrices of a Gamma space: the particular solution offset by the
    span of its kernel basis, or of the first k words of it."""
    combos = gf2.span(np.array(gs.space.basis[:k], dtype=object)).tolist()
    return [matrix_from_vec(gs.space.particular ^ c, gs.n) for c in combos]


def test_gamma_space_system_shape_and_layout():
    g = catalog.gold(5)
    tr = gf2.trace_form(default_field(5))
    gs = gamma_space(g, tr)
    assert not gs.empty
    # vec layout round trip
    rng = random.Random(1)
    m = gf2.random_matrix(5, 5, rng)
    assert matrix_from_vec(vec_from_matrix(m), 5) == m
    # solutions satisfy the defining condition
    pi = ortho_derivative(g).table
    for lin in _gamma_members(gs, 6):
        for a in range(1, 32):
            if inner_product(tr, a) == 0:
                assert inner_product(int(pi[a]), lin.mul_vec(a)) == 1
    assert _l16_matrix() in gs


def test_gamma_space_rejects_small_n_and_zero_ell():
    with pytest.raises(ValueError):
        gamma_space(catalog.gold(5), 0)
    two_bit = VBF(2, 2, [0, 1, 2, 0])
    with pytest.raises(ValueError):
        gamma_space(two_bit, 1)


def test_gamma_cardinality_is_multiple_of_2_pow_2n():
    g = catalog.gold(5)
    for ell in range(1, 32):
        gs = gamma_space(g, ell)
        if not gs.empty:
            assert len(gs.space.basis) >= 10
            assert gs.size % (1 << 10) == 0


def test_gamma_representatives_gold5():
    g = catalog.gold(5)
    tr = gf2.trace_form(default_field(5))
    gs = gamma_space(g, tr)
    reps = gamma_representatives(gs)
    assert len(reps) == gs.size // (1 << 10)
    for lin in reps:
        assert lin in gs
        assert zero_ext_apn_test(g, lin, tr)
    with pytest.raises(ValueError):
        gamma_representatives(gamma_space(catalog.gold(7), 1))
    # directions outside the solution kernel mean the space is wrong
    narrowed = dataclasses.replace(gs, space=dataclasses.replace(gs.space, basis=()))
    with pytest.raises(RuntimeError, match="leave the solution kernel"):
        gamma_representatives(narrowed)
    repeated = dataclasses.replace(gs, j_basis=gs.j_basis[:1] * 2 + gs.j_basis[2:])
    with pytest.raises(RuntimeError, match="directions are dependent"):
        gamma_representatives(repeated)


def test_gamma_equivalence_closure_and_signatures():
    g = catalog.gold(5)
    tr = gf2.trace_form(default_field(5))
    gs = gamma_space(g, tr)
    lin = gamma_representatives(gs)[0]
    base = invariant_signature(build_extension(g, None, lin, tr))
    rng = random.Random(2)
    for _ in range(10):
        mu, nu = rng.randrange(32), rng.randrange(32)
        lin2 = lin + derivative_matrix(g, mu) + rank_one(nu, tr, 5)
        assert lin2 in gs
        assert invariant_signature(build_extension(g, None, lin2, tr)) == base


def test_rank_of_valid_l_is_n_or_n_minus_1():
    g = catalog.gold(5)
    tr = gf2.trace_form(default_field(5))
    gs = gamma_space(g, tr)
    rng = random.Random(3)
    members = _gamma_members(gs)
    for lin in rng.sample(members, 50):
        assert rank(lin) in (4, 5)


def test_rank_distribution_over_nu():
    # for L in Gamma and any mu, adding nu * ell^T splits ranks evenly
    g = catalog.gold(5)
    tr = gf2.trace_form(default_field(5))
    lin = gamma_representatives(gamma_space(g, tr))[0]
    rng = random.Random(4)
    for _ in range(5):
        mu = rng.randrange(32)
        base = lin + derivative_matrix(g, mu)
        ranks = [rank(base + rank_one(nu, tr, 5)) for nu in range(32)]
        assert ranks.count(5) == 16 and ranks.count(4) == 16


def test_zero_extensions_gold5_yields_t6_class():
    exts = zero_extensions(catalog.gold(5))
    assert len(exts) >= 1
    sigs = {sig for _, sig in exts}
    assert invariant_signature(catalog.t6()) in sigs
    for t, _ in exts:
        assert is_apn(t) and t.degree == 2 and linearity(t) == 32


def test_zero_extensions_even_n_empty():
    assert zero_extensions(catalog.gold(4)) == []
    assert zero_extensions(catalog.gold(6)) == []


def test_trim_inverse_property():
    # the base function's class shows up among the APN trims of any output
    for t, _ in zero_extensions(catalog.gold(5)):
        sigs = {s for _, s in apn_trims(t)}
        assert invariant_signature(catalog.gold(5)) in sigs


def test_walsh_profile_counts():
    # at nn = 4 semi-bent and top values are both 8: a component counts
    # under the first profile it fits, so gold4 has no top one
    assert max_linearity_walsh_profile(catalog.gold(4)) == (10, 5, 0)
    assert max_linearity_walsh_profile(catalog.t6()) == (46, 16, 1)
    assert max_linearity_walsh_profile(catalog.t8(1)) == (190, 64, 1)
    with pytest.raises(ValueError):
        max_linearity_walsh_profile(catalog.gold(7))   # almost bent input
    with pytest.raises(ValueError):
        max_linearity_walsh_profile(catalog.gold(6))   # linearity 2^4 only


def test_walsh_profile_names_a_component_that_fits_none(monkeypatch):
    t6 = catalog.t6()
    values = vbf.walsh(t6)
    beta = int(np.flatnonzero((np.abs(values[1:]) == 8).all(axis=1))[0]) + 1   # a bent row
    values[beta, 0] = 16
    monkeypatch.setattr(extension, "walsh", lambda f: values)
    with pytest.raises(ValueError, match=rf"component {beta} fits no Walsh profile: {{8, 16}}"):
        max_linearity_walsh_profile(t6)


def test_canonical_form_check():
    tr7 = gf2.trace_form(gf2.FieldSpec(7, 0b10000011))
    for i in (1, 2, 3, 4):
        assert canonical_form_check(catalog.t8(i), tr7)
    # derived by direct evaluation: the plain cube map with L = id fails
    spec5 = default_field(5)
    tr5 = gf2.trace_form(spec5)
    t = build_extension(catalog.gold(5), None, GF2Matrix.identity(5), tr5)
    assert canonical_form_check(t, tr5) is False
    # non-APN embedded function is rejected with False as well
    rng = random.Random(5)
    while True:
        f = random_quadratic(5, 5, rng)
        if not is_apn(f):
            break
    t_bad = build_extension(f, None, GF2Matrix.identity(5), tr5)
    assert canonical_form_check(t_bad, tr5) is False
    r = sample_quadratic_r(catalog.gold(5), random.Random(0))
    assert r.table.any()
    rejected = [
        (build_extension(catalog.gold(5), r, GF2Matrix.identity(5), tr5), tr5,
         "zero last coordinate"),
        (catalog.t6(), tr5, "not in canonical form"),      # L is not the identity
        (t, tr5 ^ 1, "not in canonical form"),             # l is not <gamma, .>
        (t, 0, "gamma must be a nonzero"),
        (t, 32, "ell out of range"),
        (VBF.constant(6, 5, 0), 1, "T must have n = m"),
    ]
    for tab, gamma, message in rejected:
        with pytest.raises(ValueError, match=message):
            canonical_form_check(tab, gamma)


def test_canonical_form_check_is_zero_ext_apn_test_with_identity():
    rng = random.Random(21)
    gs = [catalog.gold(5), catalog.g7(1)] + [random_quadratic(5, 5, rng) for _ in range(4)]
    answers = []
    for g in gs:
        ident = GF2Matrix.identity(g.n)
        for gamma in range(1, 1 << g.n):
            want = zero_ext_apn_test(g, ident, gamma)
            assert canonical_form_check(build_extension(g, None, ident, gamma), gamma) is want
            answers.append(want)
    assert answers.count(True) == 1      # G1 with one gamma
    # zero_ext_apn_test rejects G of degree > 2; the check answers False
    cubic = VBF.from_univariate(default_field(5), [(1, 7)])
    ident = GF2Matrix.identity(5)
    assert canonical_form_check(build_extension(cubic, None, ident, 3), 3) is False


def test_sample_quadratic_r_properties():
    g = catalog.gold(5)
    rng = random.Random(6)
    seen = set()
    for _ in range(20):
        r = sample_quadratic_r(g, rng)
        anf, deg = anf_and_degree(r)
        assert deg in (0, 2)
        assert all(bin(u).count("1") == 2 for u in anf.monomials(0))
        seen.add(r)
    assert len(seen) > 1


def _sample_quadratic_r_by_loop(g, rng):
    """sample_quadratic_r by an echelon loop over the monomial words and a
    sum of monomial tables, with the same single draw."""
    n = g.n
    monomials = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    coeffs = vbf._mobius(g.table)
    echelon = []

    def insert(v):
        for row in echelon:
            if v & (row & -row):
                v ^= row
        if v:
            echelon.append(v)
            echelon.sort(key=lambda r: r & -r)
        return v

    for c in range(n):
        insert(sum(((int(coeffs[m]) >> c) & 1) << t for t, m in enumerate(monomials)))
    complement = [t for t in range(len(monomials)) if insert(1 << t)]
    xs = np.arange(1 << n, dtype=np.uint16)
    tab = np.zeros(1 << n, dtype=np.uint16)
    picks = rng.getrandbits(len(complement)) if complement else 0
    for pos, t in enumerate(complement):
        if (picks >> pos) & 1:
            i, j = (b for b in range(n) if monomials[t] >> b & 1)
            tab ^= (xs >> i) & (xs >> j) & 1
    return VBF(n, 1, tab)


@pytest.mark.parametrize("name", ["G1", "G2", "G3", "G4", "gold5", "gold7", "T6"])
def test_sample_quadratic_r_matches_loop(name):
    g = catalog.fixture(name)
    for seed in range(4):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert sample_quadratic_r(g, rng) == _sample_quadratic_r_by_loop(g, ref_rng)
        assert rng.getstate() == ref_rng.getstate()


def test_search_enumerates_exactly_gamma_for_zero_r():
    # exhaustive cross-validation of the APN criterion at n = 5: with r = 0
    # and the form fixed, the backtracking search must enumerate Gamma
    # exactly (410,656 nodes, about 0.2 s on a 2-core x86 host)
    g = catalog.gold(5)
    tr = gf2.trace_form(default_field(5))
    gs = gamma_space(g, tr)
    sols = r_extension_search(g, r=VBF.constant(5, 1, 0), fixed_ell=tr,
                              find_all=True, budget=50_000_000)
    assert len(sols) == gs.size
    for lin, ell in sols:
        assert ell == tr and lin in gs


def test_search_finds_the_zero_extension_class_of_g1():
    # known answer at n = 7: with r = 0 and l = x_0, the extensions are the
    # 2^14 elements of Gamma_{G1,1}, all of G1's one 0-extension class
    g1 = catalog.fixture("G1")
    (_, sig), = zero_extensions(g1)
    for seed in range(4):
        t = r_extension_search(g1, r=VBF.constant(7, 1, 0), fixed_ell=1,
                               rng=random.Random(seed), budget=100_000)
        assert t is not None, seed
        assert t.n == 8 and t.degree == 2 and is_apn(t)
        assert invariant_signature(t) == sig


def test_search_criterion_agrees_with_is_apn_on_one_bit_flips():
    # every one-bit flip of L or l of sampled solutions: the flip is a
    # solution of the exhaustive search iff its extension is APN
    g = catalog.gold(5)
    rng = random.Random(2)
    r = sample_quadratic_r(g, rng)
    sols = {(lin.rows, ell) for lin, ell in
            r_extension_search(g, r=r, find_all=True, budget=10 ** 9)}
    assert len(sols) == 47_136
    for rows, ell in rng.sample(sorted(sols), 32):
        # row i of L for i < 5, l for i = 5
        for i in range(6):
            for j in range(5):
                words = [*rows, ell]
                words[i] ^= 1 << j
                flipped = tuple(words[:5]), words[5]
                t = build_extension(g, r, GF2Matrix(5, 5, flipped[0]), flipped[1])
                assert (flipped in sols) == is_apn(t), flipped


def test_search_matches_brute_force_at_n3():
    # every (L, ell) pair is feasible to test directly at n = 3; the
    # search must enumerate exactly those
    import itertools

    g = catalog.gold(3)
    rng = random.Random(5)
    for _ in range(2):
        r = sample_quadratic_r(g, rng)
        sols = r_extension_search(g, r=r, find_all=True, budget=10 ** 7)
        found = {(lin.rows, ell) for lin, ell in sols}
        brute = set()
        for rows in itertools.product(range(8), repeat=3):
            lin = GF2Matrix(3, 3, rows)
            for ell in range(8):
                if is_apn(build_extension(g, r, lin, ell)):
                    brute.add((rows, ell))
        assert found == brute


def test_search_empty_at_n4():
    # no 0-extension exists in even dimension; tree exhausts without leaves
    g = catalog.gold(4)
    assert all(gamma_space(g, ell).empty for ell in range(1, 16))
    sols = r_extension_search(g, r=VBF.constant(4, 1, 0), fixed_ell=0b1,
                              find_all=True, budget=50_000_000)
    assert sols == []


def test_seeded_search_finds_extension():
    g = catalog.gold(5)
    stats = {}
    t = r_extension_search(g, rng=random.Random(1), budget=1_000_000,
                           stats=stats)
    assert t is not None
    assert t.n == 6 and t.degree == 2 and is_apn(t)
    assert stats["nodes"] <= 1_000_000
    sigs = {s for _, s in apn_trims(t)}
    assert invariant_signature(g) in sigs


def test_search_budget_abort_returns_none():
    g = catalog.gold(5)
    stats = {}
    t = r_extension_search(g, rng=random.Random(1), budget=50, stats=stats)
    assert t is None and stats["nodes"] <= 50


def test_search_rejects_negative_budget_or_restarts():
    g = catalog.gold(5)
    for kwargs in ({"budget": -1}, {"max_restarts": -1}):
        with pytest.raises(ValueError, match="must be at least 0"):
            r_extension_search(g, rng=random.Random(1), **kwargs)
    stats = {}
    assert r_extension_search(g, rng=random.Random(1), budget=0, stats=stats) is None
    assert stats == {"nodes": 0, "restarts": 0}
    assert r_extension_search(g, rng=random.Random(1), max_restarts=0, stats=stats) is None
    assert stats == {"nodes": 0, "restarts": 0}


def test_search_requires_quadratic_apn():
    with pytest.raises(ValueError):
        r_extension_search(VBF.identity(5))
    with pytest.raises(ValueError):
        r_extension_search(catalog.gold(5), find_all=True)
    for ell in (-1, 8, 99):
        with pytest.raises(ValueError, match="fixed_ell out of range"):
            r_extension_search(catalog.gold(3), fixed_ell=ell)


# ---------------------------------------------------------------------------
# the level-wise DFS against the point-by-point set search it replaced
# ---------------------------------------------------------------------------

class _Exhausted(Exception):
    pass


def _search_one_r_by_sets(out0, n, budget, mask, fixed_ell, sink):
    """Reference DFS: one Python set of output differences per difference
    vector, extended and checked one point at a time."""
    size = 1 << n
    ymask = 1 << n
    out0 = [int(v) for v in out0]
    val = [0] * size
    out = [0] * (size << 1)
    out[0] = out0[0]
    out[ymask] = out0[0]
    points = [x | yh for x in range(size) for yh in (0, ymask)]
    sets = {ymask: {0}}
    imgs = []
    nodes = 0
    n_candidates = 1 << (n + 1)

    def try_extend(k, cand):
        half = 1 << k
        for x in range(half, half << 1):
            v = val[x ^ half] ^ cand
            val[x] = v
            o = out0[x]
            out[x] = o
            out[x | ymask] = o ^ v
        trail = []
        created = []
        newz = points[half << 1: half << 2]
        for w, s in list(sets.items()):
            for z in newz:
                z2 = z ^ w
                if z2 < z:
                    continue
                v = out[z] ^ out[z2]
                if v in s:
                    return False, trail, created
                s.add(v)
                trail.append((s, v))
        oldz = points[: half << 1]
        for alpha in range(half, half << 1):
            for ah in (0, ymask):
                w = alpha | ah
                s = set()
                for z in oldz:
                    v = out[z] ^ out[z ^ w]
                    if v in s:
                        return False, trail, created
                    s.add(v)
                sets[w] = s
                created.append(w)
        return True, trail, created

    def rollback(trail, created):
        for s, v in trail:
            s.discard(v)
        for w in created:
            del sets[w]

    def leaf():
        cols = [c & (size - 1) for c in imgs]
        ell = 0
        for j, c in enumerate(imgs):
            ell |= ((c >> n) & 1) << j
        return GF2Matrix.from_columns(cols, n), ell

    def dfs(k):
        nonlocal nodes
        if k == n:
            sol = leaf()
            if sink is not None:
                sink.append(sol)
                return None
            return sol
        want = None if fixed_ell is None else (fixed_ell >> k) & 1
        for t in range(n_candidates):
            cand = t ^ mask
            if want is not None and ((cand >> n) & 1) != want:
                continue
            if nodes >= budget:
                raise _Exhausted
            nodes += 1
            ok, trail, created = try_extend(k, cand)
            if ok:
                imgs.append(cand)
                found = dfs(k + 1)
                if found is not None:
                    return found
                imgs.pop()
            rollback(trail, created)
        return None

    try:
        return dfs(0), nodes
    except _Exhausted:
        return None, nodes


_DFS_INPUTS = ["gold3", "gold4", "gold5", "gold6", "gold7", "G1", "G1-ea"]


def _dfs_input(name):
    if name == "G1-ea":
        return random_ea_transform(catalog.fixture("G1"), random.Random(7))
    return catalog.fixture(name)


def _dfs_cases(g, seeds):
    """(g, r, mask, fixed_ell) for sampled r and masks, each with and
    without a fixed l."""
    for seed in seeds:
        rng = random.Random(seed)
        r = sample_quadratic_r(g, rng)
        mask = rng.getrandbits(g.n + 1)
        for fixed_ell in (None, 5):
            yield g, r, mask, fixed_ell


def _dfs_outcome(search, g, r, mask, fixed_ell, budget, find_all=False):
    sink = [] if find_all else None
    out0 = g.table.astype(np.int32) | (r.table.astype(np.int32) << g.n)
    found, nodes = search(out0, g.n, budget, mask, fixed_ell, sink)
    found = None if found is None else (found[0].rows, found[1])
    return found, nodes, [(lin.rows, ell) for lin, ell in sink or []]


def _is_solution(g, r, found):
    lin, ell = found
    return is_apn(build_extension(g, r, GF2Matrix(g.n, g.n, lin), ell))


# The exact criterion prunes at least as much as the span-wise test of the
# reference at every level and keeps every complete solution, so both walk
# the same leaves in the same order; only the node counts may differ,
# never upwards.

@pytest.mark.parametrize("name", _DFS_INPUTS)
def test_dfs_matches_set_search(name):
    for case in _dfs_cases(_dfs_input(name), range(3)):
        for budget in (1_500, 37):
            found, nodes, _ = _dfs_outcome(extension._search_one_r, *case, budget)
            ref, ref_nodes, _ = _dfs_outcome(_search_one_r_by_sets, *case, budget)
            assert nodes <= budget
            if ref is not None:
                assert found == ref and nodes <= ref_nodes, (name, case[2:], budget)
            if found is not None:
                assert _is_solution(case[0], case[1], found), (name, case[2:], budget)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dfs_find_all_matches_set_search(n):
    for case in _dfs_cases(catalog.gold(n), range(2)):
        _, nodes, sols = _dfs_outcome(extension._search_one_r, *case, 20_000,
                                      find_all=True)
        _, ref_nodes, ref_sols = _dfs_outcome(_search_one_r_by_sets, *case, 20_000,
                                              find_all=True)
        assert nodes <= ref_nodes, (n, case[2:])
        if ref_nodes < 20_000:
            assert sols == ref_sols, (n, case[2:])
        else:
            # the budget cut the reference: it listed a prefix of the sink
            assert sols[:len(ref_sols)] == ref_sols, (n, case[2:])


def _whole_searches(search, monkeypatch):
    """Output, stats, budget and, for each restart, (H table, mask, nodes)
    of whole r_extension_search runs with ``search`` as _search_one_r."""
    g1, g5, g3 = catalog.fixture("G1"), catalog.gold(5), catalog.gold(3)
    runs = [(g5, dict(rng=random.Random(s))) for s in (3, 14)]
    runs += [(g1, dict(rng=random.Random(s), budget=1_000)) for s in (0, 3)]
    runs += [(g5, dict(rng=random.Random(4), budget=20_000, fixed_ell=9)),
             (g3, dict(r=sample_quadratic_r(g3, random.Random(1)), find_all=True))]
    restarts = []

    def recording(out0, n, budget, mask, fixed_ell, sink):
        found, nodes = search(out0, n, budget, mask, fixed_ell, sink)
        restarts.append((out0.tolist(), mask, nodes))
        return found, nodes

    monkeypatch.setattr(extension, "_search_one_r", recording)
    outs = []
    for g, kw in runs:
        restarts.clear()
        stats = {}
        out = r_extension_search(g, stats=stats, **kw)
        if isinstance(out, list):
            out = [(lin.rows, ell) for lin, ell in out]
        elif out is not None:
            out = out.table.tolist()
        outs.append((out, stats, kw.get("budget", 10_000_000), list(restarts)))
    return outs


def test_r_extension_search_matches_set_search(monkeypatch):
    fast = _whole_searches(extension._search_one_r, monkeypatch)
    slow = _whole_searches(_search_one_r_by_sets, monkeypatch)
    for (out, stats, _, recs), (ref, ref_stats, _, ref_recs) in zip(fast, slow):
        assert (out, stats["restarts"]) == (ref, ref_stats["restarts"])
        assert stats["nodes"] <= ref_stats["nodes"] and len(recs) == len(ref_recs)
        nodes = ref_nodes = 0
        for (h, mask, used), (ref_h, ref_mask, ref_used) in zip(recs, ref_recs):
            # the same r and mask on every restart, and no more nodes so far
            assert (h, mask) == (ref_h, ref_mask)
            nodes, ref_nodes = nodes + used, ref_nodes + ref_used
            assert nodes <= ref_nodes
    assert any(out is not None for out, _, _, _ in fast)
    assert any(ref_stats["nodes"] == budget for _, ref_stats, budget, _ in slow)


def test_find_all_cut_by_the_budget_returns_a_prefix():
    """A find_all run cut at the node budget returns the solutions found so
    far, in the order of the uncut run, with stats["nodes"] at the budget."""
    g = catalog.gold(4)
    r = sample_quadratic_r(g, random.Random(0))
    stats = {}
    full = r_extension_search(g, r=r, rng=random.Random(0), find_all=True, stats=stats)
    total = stats["nodes"]
    assert len(full) > 1 and total < 10_000_000
    lengths = []
    for budget in (total // 3, total // 2, total - 1):
        cut = r_extension_search(g, r=r, rng=random.Random(0), find_all=True,
                                 budget=budget, stats=stats)
        assert stats["nodes"] == budget
        assert cut == full[:len(cut)], budget
        lengths.append(len(cut))
    # the last nodes of the uncut run try failing candidates after its last leaf
    assert 0 < lengths[0] < lengths[1] < len(full) == lengths[2]


def _zero_extensions_by_public_gamma_space(g):
    """zero_extensions through the checked gamma_space, one gamma at a time."""
    out, seen = [], set()
    for gamma in range(1, 1 << g.n):
        gs = gamma_space(g, gamma)
        if gs.empty:
            continue
        for lin in gamma_representatives(gs):
            t = build_extension(g, None, lin, gamma)
            sig = invariant_signature(t)
            if sig not in seen:
                seen.add(sig)
                out.append((t, sig))
    return out


def _no_ddt_apn_test(f):
    raise AssertionError("the quadratic APN gate built a DDT")


@pytest.mark.parametrize("name", ["gold5", "G1", "G2", "G3", "G4"])
def test_zero_extensions_checks_g_once(name, monkeypatch):
    """g goes through the ortho-derivative gate once and its ortho-derivative
    is computed once; no DDT is built for it."""
    g = catalog.fixture(name)
    want = _zero_extensions_by_public_gamma_space(g)
    checked = []
    real = extension._is_quadratic_apn
    monkeypatch.setattr(extension, "_is_quadratic_apn",
                        lambda f: checked.append(f.n) or real(f))
    monkeypatch.setattr(extension, "is_apn", _no_ddt_apn_test)
    ortho._ortho_cached.cache_clear()
    got = zero_extensions(g)
    assert [(t.table.tolist(), sig) for t, sig in got] == \
        [(t.table.tolist(), sig) for t, sig in want]
    assert checked.count(g.n) == 1
    assert ortho._ortho_cached.cache_info().misses == 1


@pytest.mark.parametrize("name", ["gold5", "G1"])
def test_zero_ext_apn_test_agrees_with_the_ddt_on_gamma_members(name, monkeypatch):
    """Members of Gamma_{G, l} and matrices one bit away from them, which
    are not members, against the DDT of the extension they build."""
    g = catalog.fixture(name)
    n = g.n
    rng = random.Random(n)
    ells = [ell for ell in range(1, 1 << n) if not gamma_space(g, ell).empty]
    assert ells
    cases = []
    for ell in ells[:3] + [rng.randrange(1, 1 << n) for _ in range(3)]:
        gs = gamma_space(g, ell)
        members = [gf2.random_matrix(n, n, rng)] if gs.empty else _gamma_members(gs, 2)
        for lin in members:
            other = matrix_from_vec(vec_from_matrix(lin) ^ (1 << rng.randrange(n * n)), n)
            cases += [(lin, ell, lin in gs), (other, ell, other in gs)]
    assert {member for _, _, member in cases} == {True, False}
    want = [is_apn(build_extension(g, None, lin, ell)) for lin, ell, _ in cases]
    monkeypatch.setattr(extension, "is_apn", _no_ddt_apn_test)
    got = [zero_ext_apn_test(g, lin, ell) for lin, ell, _ in cases]
    assert got == want == [member for _, _, member in cases]


def test_zero_extensions_raise_on_an_extension_that_is_not_apn(monkeypatch, capsys):
    # with L = 0, T(x, y) + T(x, y + 1) = (0, l(x)) is 0 on the kernel of l,
    # so every extension built is not APN and fails the signature check
    g = catalog.gold(5)
    zero = GF2Matrix.zeros(5, 5)
    monkeypatch.setattr(extension, "gamma_representatives", lambda gs: [zero])
    ell = next(e for e in range(1, 32) if not gamma_space(g, e).empty)
    assert not is_apn(build_extension(g, None, zero, ell))
    with pytest.raises(RuntimeError, match="violates its invariants"):
        zero_extensions(g)
    assert main(["zero-extend", "fixture:gold5"]) == 2
    assert "violates its invariants" in capsys.readouterr().err


def _gamma_space_by_loop(g, ell):
    """The Gamma system of one form, built row by row from the
    ortho-derivative and solved by the scalar Gauss-Jordan: the reference
    for the batched solve."""
    n = g.n
    pi = ortho_derivative(g).table
    rows = []
    for a in range(1, 1 << n):
        if inner_product(ell, a) == 0:
            row = 0
            for i in range(n):
                if (int(pi[a]) >> i) & 1:
                    row |= a << (i * n)
            rows.append(row)
    mat = GF2Matrix(len(rows), n * n, rows)
    return _solve_affine_by_loop(mat, (1 << len(rows)) - 1)


_GAMMA_INPUTS = ["gold3", "gold4", "gold5", "gold6", "gold7",
                 "G1", "G2", "G3", "G4", "T8_1"]
_EXTENDABLE = {"gold3", "gold5", "G1", "G2", "G3", "G4"}


@pytest.mark.parametrize("name", _GAMMA_INPUTS)
def test_gamma_spaces_match_scalar_solve(name):
    # n = 8 puts the right-hand side of every equation in a second word
    g = catalog.fixture(name)
    forms = range(1, 1 << g.n)
    want = [_gamma_space_by_loop(g, ell) for ell in forms]
    batched = list(extension._gamma_spaces(g, forms))
    assert [gs.ell for gs in batched] == list(forms)
    assert [gs.space for gs in batched] == want
    assert [gamma_space(g, ell).space for ell in forms] == want
    for gs in batched:
        assert gs.j_basis == gamma_space(g, gs.ell).j_basis
    # gold7 and the even-n inputs have no 0-extension
    assert any(not s.empty for s in want) == (name in _EXTENDABLE)


def test_gamma_spaces_chunked_path(monkeypatch):
    # one or two forms per batched elimination instead of all of them
    inputs = [catalog.gold(5), catalog.fixture("G1"),
              random_ea_transform(catalog.fixture("G2"), random.Random(3))]
    forms = [range(1, 1 << g.n) for g in inputs]
    whole = [[gs.space for gs in extension._gamma_spaces(g, f)]
             for g, f in zip(inputs, forms)]
    exts = [zero_extensions(g) for g in inputs]
    monkeypatch.setattr(vbf, "_BATCH_CELL_LIMIT", 1_000)
    assert [[gs.space for gs in extension._gamma_spaces(g, f)]
            for g, f in zip(inputs, forms)] == whole
    assert [[(t.table.tolist(), sig) for t, sig in zero_extensions(g)]
            for g in inputs] == \
        [[(t.table.tolist(), sig) for t, sig in e] for e in exts]
    assert all(e for e in exts)
