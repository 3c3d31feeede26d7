import json
import random

import pytest

from apnkit import catalog, extension, gf2, vbf
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


def test_zero_ext_agrees_with_direct_ddt():
    g = catalog.gold(5)
    rng = random.Random(0)
    for _ in range(200):
        lin = gf2.random_matrix(5, 5, rng)
        ell = rng.randrange(1, 32)
        assert zero_ext_apn_test(g, lin, ell) == \
            is_apn(build_extension(g, None, lin, ell))


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
    for lin in list(gs.matrices())[:64]:
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
    members = list(gs.matrices())
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
    assert max_linearity_walsh_profile(catalog.t6()) == (46, 16, 1)
    assert max_linearity_walsh_profile(catalog.t8(1)) == (190, 64, 1)
    with pytest.raises(ValueError):
        max_linearity_walsh_profile(catalog.gold(7))   # almost bent input
    with pytest.raises(ValueError):
        max_linearity_walsh_profile(catalog.gold(6))   # linearity 2^4 only


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
    with pytest.raises(ValueError):
        canonical_form_check(catalog.t6(), 0)
    with pytest.raises(ValueError):
        # not in canonical form (L is not the identity)
        canonical_form_check(catalog.t6(), tr5)


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


def test_search_enumerates_exactly_gamma_for_zero_r():
    # exhaustive cross-validation of the APN criterion at n = 5: with r = 0
    # and the form fixed, the backtracking search must enumerate Gamma
    # exactly (4,660,256 nodes in 145,633 level tests, about 13 s)
    g = catalog.gold(5)
    tr = gf2.trace_form(default_field(5))
    gs = gamma_space(g, tr)
    sols = r_extension_search(g, r=VBF.constant(5, 1, 0), fixed_ell=tr,
                              find_all=True, budget=50_000_000)
    assert len(sols) == gs.size
    for lin, ell in sols[::97]:
        assert ell == tr and lin in gs


def test_search_matches_brute_force_at_n3():
    # every (L, ell) pair is feasible to test directly at n = 3; the
    # incremental difference-set pruning must enumerate exactly those
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


def test_search_checkpoint_records(tmp_path):
    g = catalog.gold(5)
    path = tmp_path / "ckpt.jsonl"
    r_extension_search(g, rng=random.Random(1), budget=200_000,
                       checkpoint_path=str(path), g_id="gold5")
    lines = path.read_text().strip().splitlines()
    assert lines
    rec = json.loads(lines[-1])
    assert rec["g_id"] == "gold5"
    assert set(rec) == {"g_id", "r_anf", "assignment", "nodes"}
    int(rec["r_anf"], 16)


def test_search_requires_quadratic_apn():
    with pytest.raises(ValueError):
        r_extension_search(VBF.identity(5))
    with pytest.raises(ValueError):
        r_extension_search(catalog.gold(5), find_all=True)


# ---------------------------------------------------------------------------
# the level-wise DFS against the point-by-point set search it replaced
# ---------------------------------------------------------------------------

class _Exhausted(Exception):
    pass


def _search_one_r_by_sets(g_tab, n, r_tab, budget, mask, fixed_ell, find_all, sink):
    """Reference DFS: one Python set of output differences per difference
    vector, extended and checked one point at a time."""
    size = 1 << n
    ymask = 1 << n
    out0 = [g_tab[x] | (r_tab[x] << n) for x in range(size)]
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
            if find_all:
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
        found = dfs(0)
    except _Exhausted:
        return None, nodes, list(imgs)
    return found, nodes, list(imgs)


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
    sink = []
    found, nodes, partial = search([int(v) for v in g.table], g.n,
                                   [int(v) for v in r.table], budget, mask,
                                   fixed_ell, find_all, sink)
    found = None if found is None else (found[0].rows, found[1])
    return found, nodes, partial, [(lin.rows, ell) for lin, ell in sink]


@pytest.mark.parametrize("name", _DFS_INPUTS)
def test_dfs_matches_set_search(name):
    for case in _dfs_cases(_dfs_input(name), range(3)):
        for budget in (1_500, 37):
            fast = _dfs_outcome(extension._search_one_r, *case, budget)
            slow = _dfs_outcome(_search_one_r_by_sets, *case, budget)
            assert fast == slow, (name, case[2:], budget)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dfs_find_all_matches_set_search(n):
    for case in _dfs_cases(catalog.gold(n), range(2)):
        fast = _dfs_outcome(extension._search_one_r, *case, 20_000, find_all=True)
        slow = _dfs_outcome(_search_one_r_by_sets, *case, 20_000, find_all=True)
        assert fast == slow, (n, case[2:])


def _whole_searches(tmp_path, tag):
    """Output, stats and checkpoint lines of whole r_extension_search runs."""
    g1, g5, g3 = catalog.fixture("G1"), catalog.gold(5), catalog.gold(3)
    runs = [(g5, dict(rng=random.Random(s))) for s in (3, 14)]
    runs += [(g1, dict(rng=random.Random(s), budget=1_000)) for s in (0, 3)]
    runs += [(g5, dict(rng=random.Random(4), budget=20_000, fixed_ell=9)),
             (g3, dict(r=sample_quadratic_r(g3, random.Random(1)), find_all=True))]
    outs = []
    for i, (g, kw) in enumerate(runs):
        path = tmp_path / f"{tag}{i}.jsonl"
        stats = {}
        out = r_extension_search(g, checkpoint_path=str(path), stats=stats, **kw)
        if isinstance(out, list):
            out = [(lin.rows, ell) for lin, ell in out]
        elif out is not None:
            out = out.table.tolist()
        outs.append((out, stats, path.read_text().splitlines()))
    return outs


def test_r_extension_search_matches_set_search(tmp_path, monkeypatch):
    fast = _whole_searches(tmp_path, "fast")
    monkeypatch.setattr(extension, "_search_one_r", _search_one_r_by_sets)
    assert fast == _whole_searches(tmp_path, "slow")
    assert any(out is not None for out, _, _ in fast)


def test_dfs_chunked_path(monkeypatch):
    # a few differences w per chunk instead of the whole level at once
    cases = [c for name in ("gold3", "gold4", "gold5", "G1")
             for c in _dfs_cases(_dfs_input(name), range(2))]
    whole = [_dfs_outcome(extension._search_one_r, *c, 400, find_all=c[0].n <= 4)
             for c in cases]
    monkeypatch.setattr(vbf, "_BATCH_CELL_LIMIT", 100)
    assert [_dfs_outcome(extension._search_one_r, *c, 400, find_all=c[0].n <= 4)
            for c in cases] == whole
    assert any(sols for _, _, _, sols in whole)


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


@pytest.mark.parametrize("name", ["gold5", "G1", "G2", "G3", "G4"])
def test_zero_extensions_checks_g_once(name, monkeypatch):
    g = catalog.fixture(name)
    want = _zero_extensions_by_public_gamma_space(g)
    checked = []
    real = extension.is_apn
    monkeypatch.setattr(extension, "is_apn", lambda f: checked.append(f.n) or real(f))
    got = zero_extensions(g)
    assert [(t.table.tolist(), sig) for t, sig in got] == \
        [(t.table.tolist(), sig) for t, sig in want]
    assert checked.count(g.n) == 1


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
