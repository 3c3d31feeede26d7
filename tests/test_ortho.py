import random
import tracemalloc

import numpy as np
import pytest

from apnkit import catalog, gf2, ortho
from apnkit import vbf as vbf_mod
from apnkit.gf2 import default_field, inner_product
from apnkit.ortho import gold_ortho, invariant_signature, ortho_derivative
from apnkit.vbf import (
    VBF, affine_transform, derivative, is_apn, random_ea_transform,
    random_function, random_quadratic,
)


def test_gold_ortho_basics():
    spec = default_field(5)
    pi = gold_ortho(spec, 1)
    assert pi(0) == 0
    with pytest.raises(ValueError):
        gold_ortho(default_field(6), 1)   # even n
    with pytest.raises(ValueError):
        gold_ortho(default_field(9), 3)   # gcd != 1


def test_gold_ortho_n3_is_x4():
    spec = gf2.FieldSpec(3, 0b1011)
    # x^-3 = x^4 on the nonzero elements of F_8
    x4 = VBF.from_univariate(spec, [(1, 4)])
    assert gold_ortho(spec, 1) == x4


# X^9 + X + 1 is irreducible, but X has order 73 in its field, not 511
_NONPRIMITIVE_9 = gf2.FieldSpec(9, 0b1000000011)


@pytest.mark.parametrize("spec", [default_field(n) for n in (3, 5, 7, 9, 11, 13)]
                         + [_NONPRIMITIVE_9], ids=[3, 5, 7, 9, 11, 13, "9-nonprimitive"])
def test_gold_ortho_matches_computed_under_trace_pairing(spec):
    if spec == _NONPRIMITIVE_9:
        assert len(gf2.exp_table(spec)) == 73
        g = VBF.from_univariate(spec, [(1, 3)])
    else:
        g = catalog.gold(spec.n)
    # S w is the bit-pairing normal of the trace-pairing normal w
    to_bit_pairing = np.array(gf2.trace_gram(spec).lut(), dtype=np.uint16)
    assert np.array_equal(to_bit_pairing[gold_ortho(spec, 1).table],
                          ortho_derivative(g).table)


def test_gold_ortho_n7_value():
    spec = default_field(7)
    exp = gf2.exp_table(spec)
    pi = gold_ortho(spec, 1)
    assert pi(2) == exp[124]  # pi(g) = g^-3 = g^124


def test_defining_identity_exhaustive_on_g1():
    g1 = catalog.g7(1)
    pi = ortho_derivative(g1)
    for a in range(1, 128):
        assert pi(a) != 0
        b = derivative(g1.table, a, np.arange(128))
        assert all(inner_product(pi(a), int(v)) == 0 for v in b)


def test_ortho_requires_quadratic_apn():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        ortho_derivative(VBF.from_univariate(default_field(5), [(1, 7)]))  # degree 3
    while True:
        f = random_quadratic(5, 5, rng)
        if not is_apn(f) and f.degree == 2:
            break
    with pytest.raises(ValueError):
        ortho_derivative(f)


def test_signatures_of_g_fixtures_distinct():
    sigs = {invariant_signature(catalog.g7(i)) for i in (1, 2, 3, 4)}
    assert len(sigs) == 4


def test_signature_is_ea_invariant():
    rng = random.Random(1)
    for f in (catalog.gold(5), catalog.g7(2)):
        base = invariant_signature(f)
        for _ in range(3):
            assert invariant_signature(random_ea_transform(f, rng)) == base


def test_signature_linear_equivalence_stability():
    rng = random.Random(2)
    g = catalog.gold(7)
    base = invariant_signature(g)
    for _ in range(3):
        a, b = gf2.random_invertible(7, rng), gf2.random_invertible(7, rng)
        assert invariant_signature(affine_transform(g, b, 0, a, 0)) == base


def test_known_signature_collision_at_n5():
    # the two 5-bit quadratic APN classes are EA-inequivalent, yet share
    # all four signature spectra; counts keyed by signature are therefore
    # lower bounds for EA-class counts
    x3 = catalog.gold(5)
    x5 = VBF.from_univariate(default_field(5), [(1, 5)])
    assert is_apn(x5) and x3 != x5
    assert ortho_derivative(x3) != ortho_derivative(x5)
    assert invariant_signature(x3) == invariant_signature(x5)


def test_signature_fields_presence():
    sig = invariant_signature(catalog.gold(5))
    assert sig.apn and sig.degree == 2
    assert sig.ortho_diff_spectrum is not None
    rng = random.Random(3)
    f = random_quadratic(5, 5, rng)
    if not is_apn(f):
        s = invariant_signature(f)
        assert s.ortho_diff_spectrum is None and s.ortho_walsh_spectrum is None


def test_signature_serialization_canonical():
    sig = invariant_signature(catalog.gold(3))
    text = sig.canonical()
    assert text.startswith("sig{deg=2;apn=1;ds=[(0,") and text.endswith("}")
    assert sig.key64() == invariant_signature(catalog.gold(3)).key64()
    assert len(sig.key64()) == 16
    other = invariant_signature(catalog.gold(7))
    assert other.canonical() != text


def test_max_linearity_ortho_constant_on_hyperplane():
    # level sets of pi_T contain a linear space of dimension (input dim - 2)
    for t in (catalog.t6(), catalog.t8(1)):
        pi = ortho_derivative(t)
        nn = t.n
        want = 1 << (nn - 2)
        levels = {}
        for a in range(1, 1 << nn):
            levels.setdefault(pi(a), []).append(a)
        found = False
        for members in levels.values():
            if len(members) != want - 1:
                continue
            space = set(members) | {0}
            if all((a ^ b) in space for a in space for b in space):
                found = True
                break
        assert found


def _ortho_by_solver(g):
    """The ortho-derivative by one kernel solve per row a: B_a(e_j) are the
    rows of an n x n system whose kernel is {0, pi(a)}. The reference for
    ortho._ortho_derivatives."""
    n = g.n
    b = derivative(g.table, np.arange(1 << n)[:, None], 1 << np.arange(n))
    pi = np.zeros(1 << n, dtype=np.uint16)
    for lo, hi in vbf_mod._row_chunks(1, 1 << n, n * (n + 1)):
        spaces = gf2.solve_affine_batch(b[lo:hi, :, None], n)
        for a, space in enumerate(spaces, lo):
            if len(space.basis) != 1:
                raise ValueError("not APN: derivative images are not hyperplanes")
            pi[a] = space.basis[0]
    return VBF(n, n, pi)


def _ortho_inputs():
    return [catalog.gold(5), catalog.gold(7), catalog.fixture("G1"),
            random_ea_transform(catalog.fixture("G3"), random.Random(4))]


def test_ortho_derivative_matches_the_solver(monkeypatch):
    want = [_ortho_by_solver(f) for f in _ortho_inputs()]
    ortho._ortho_cached.cache_clear()
    assert [ortho_derivative(f) for f in _ortho_inputs()] == want
    # one row a per chunk
    ortho._ortho_cached.cache_clear()
    monkeypatch.setattr(vbf_mod, "_BATCH_CELL_LIMIT", 10)
    assert [ortho_derivative(f) for f in _ortho_inputs()] == want


def test_ortho_derivative_rejects_non_apn():
    f = random_quadratic(5, 5, random.Random(11))
    assert f.degree == 2 and not is_apn(f)
    with pytest.raises(ValueError, match="not APN"):
        _ortho_by_solver(f)
    with pytest.raises(ValueError, match="not APN"):
        ortho_derivative(f)


def _quadratic_apn_stack(n, rng):
    """EA-copies of the quadratic APN functions on n bits that the catalog
    holds, at least three."""
    bases = [catalog.gold(n)]
    if n == 6:
        bases.append(catalog.t6())
    if n == 7:
        bases += [catalog.fixture(f"G{i}") for i in range(1, 5)]
    if n == 8:
        bases.append(catalog.t8(1))
    return [random_ea_transform(bases[i % len(bases)], rng)
            for i in range(max(3, len(bases)))]


@pytest.mark.parametrize("n", range(3, 13))
def test_stacked_ortho_derivatives_match_the_solver(n, monkeypatch):
    """The stacked routine against one kernel solve per row a, with chunks
    that end inside a table and, at the default limit, few chunks."""
    funcs = _quadratic_apn_stack(n, random.Random(n))
    tabs = np.stack([f.table for f in funcs])
    want = np.stack([_ortho_by_solver(f).table for f in funcs])
    assert (ortho._ortho_derivatives(tabs, n) == want).all()
    monkeypatch.setattr(vbf_mod, "_BATCH_CELL_LIMIT", 7 << n)
    assert (ortho._ortho_derivatives(tabs, n) == want).all()


def test_stacked_ortho_derivatives_reject_a_non_apn_row():
    rng = random.Random(8)
    funcs = _quadratic_apn_stack(5, rng)
    bad = random_quadratic(5, 5, random.Random(11))
    assert bad.degree == 2 and not is_apn(bad)
    tabs = np.stack([f.table for f in funcs[:2]] + [bad.table] + [funcs[2].table])
    with pytest.raises(ValueError, match="not APN"):
        ortho._ortho_derivatives(tabs, 5)


def _recording(monkeypatch, module, name, batches):
    """Replace module.name by a wrapper that appends the number of tables
    of every call to batches."""
    real = getattr(module, name)

    def recording(tabs, k):
        batches.append(tabs.shape[0])
        return real(tabs, k)

    monkeypatch.setattr(module, name, recording)


def test_signatures_of_tables_chunked_path(monkeypatch):
    """With room for 3 tables per stack (2^20 cells each at 6 bits), 8
    tables of degree > 2 go through the DDT histogram, and 8 quadratic
    tables through the derivative ranks, in batches of at most 3, and give
    the same signatures."""
    rng = random.Random(22)
    inverse = VBF.from_univariate(default_field(6), [(1, 62)])
    general = np.stack([random_ea_transform(inverse, rng).table for _ in range(4)]
                       + [random_function(6, 6, rng).table for _ in range(4)])
    quadratic = np.stack([random_ea_transform(catalog.t6(), rng).table for _ in range(4)]
                         + [random_quadratic(6, 6, rng).table for _ in range(4)])
    assert (vbf_mod._degree_of_tables(general, 6) > 2).all()
    assert (vbf_mod._degree_of_tables(quadratic, 6) == 2).all()
    for tabs, module, name in ((general, vbf_mod, "_diff_counts_batch"),
                               (quadratic, ortho, "_quadratic_hists")):
        want = ortho.signatures_of_tables(tabs, 6)
        batches = []
        with monkeypatch.context() as patch:
            _recording(patch, module, name, batches)
            patch.setattr(vbf_mod, "_BATCH_CELL_LIMIT", 3 << 20)
            assert ortho.signatures_of_tables(tabs, 6) == want
        assert max(batches) == 3 and sum(batches) >= 8, name


def _quadratic_hist_inputs():
    """Tables of degree <= 2 by width: random quadratics on 2 .. 9 bits
    (mostly not APN), affine and constant tables, EA-copies of x^3 (APN at
    every width) and of the other quadratic APN fixtures, and x^3 on 9 bits
    itself."""
    rng = random.Random(32)
    by_n = {n: [random_quadratic(n, n, rng) for _ in range(3)]
            + [random_quadratic(n, n, rng, homogeneous=True),
               VBF(n, n, np.array(gf2.random_matrix(n, n, rng).lut()) ^ rng.getrandbits(n)),
               VBF.constant(n, n, rng.getrandbits(n)),
               random_ea_transform(catalog.gold(n), rng)]
            for n in range(2, 10)}
    by_n[6].append(random_ea_transform(catalog.t6(), rng))
    by_n[7] += [random_ea_transform(catalog.fixture(f"G{i}"), rng) for i in range(1, 5)]
    by_n[8].append(random_ea_transform(catalog.t8(1), rng))
    by_n[9].append(catalog.gold(9))
    return by_n


def _hists_by_oracle(f):
    """The DDT histogram over rows a != 0 and the |Walsh| histogram over
    beta != 0 from the dense tables vbf.ddt and vbf.walsh."""
    size = 1 << f.n
    return (np.bincount(vbf_mod.ddt(f)[1:].ravel(), minlength=size + 1),
            np.bincount(np.abs(vbf_mod.walsh(f)[1:]).ravel(), minlength=size + 1))


@pytest.mark.parametrize("limit", [None, 1 << 6, 5 << 10])
def test_quadratic_hists_match_the_table_kernels_and_the_oracles(limit, monkeypatch):
    """The histograms off the derivative ranks against _diff_counts_batch,
    _batch_walsh_hists and the dense DDT and Walsh tables, for each table
    alone and for the stack of one width, at the default limit and under
    limits that cut chunks inside a table and across tables."""
    by_n = _quadratic_hist_inputs()
    kernels = {n: [(vbf_mod._diff_counts_batch(f.table[None, :], n)[0],
                    vbf_mod._batch_walsh_hists(f.table[None, :], n)[0]) for f in funcs]
               for n, funcs in by_n.items()}
    if limit is not None:
        monkeypatch.setattr(vbf_mod, "_BATCH_CELL_LIMIT", limit)
    for n, funcs in by_n.items():
        assert all(f.degree <= 2 for f in funcs)
        ddt, walsh = ortho._quadratic_hists(np.stack([f.table for f in funcs]), n)
        for i, f in enumerate(funcs):
            one = ortho._quadratic_hists(f.table[None, :], n)
            for got in ((ddt[i], walsh[i]), (one[0][0], one[1][0])):
                assert (got[0] == kernels[n][i][0]).all() and (got[1] == kernels[n][i][1]).all()
            if limit is None:
                oracle = _hists_by_oracle(f)
                assert (ddt[i] == oracle[0]).all() and (walsh[i] == oracle[1]).all()


def test_signatures_take_quadratic_rows_off_the_ranks(monkeypatch):
    """In a stack of mixed degrees, only the tables of degree > 2 reach the
    DDT and Walsh tables (the ortho-derivatives of the quadratic APN ones
    still do), and the signatures match those of each table alone."""
    rng = random.Random(33)
    inverse = VBF.from_univariate(default_field(6), [(1, 62)])
    funcs = [random_ea_transform(catalog.t6(), rng), random_quadratic(6, 6, rng),
             random_ea_transform(inverse, rng), VBF.constant(6, 6, 5)]
    tabs = np.stack([f.table for f in funcs])
    want = [invariant_signature(f) for f in funcs]
    ddt_batches, quad_batches = [], []
    _recording(monkeypatch, vbf_mod, "_diff_counts_batch", ddt_batches)
    _recording(monkeypatch, ortho, "_quadratic_hists", quad_batches)
    assert ortho.signatures_of_tables(tabs, 6) == want
    # one general table, then one ortho-derivative; three quadratic tables
    assert ddt_batches == [1, 1] and quad_batches == [3]


def test_invariant_signature_memory_follows_the_cell_limit(monkeypatch):
    """Every DDT and Walsh histogram, and the ortho-derivative of a
    quadratic APN function, is built in blocks of at most _BATCH_CELL_LIMIT
    cells, so the peak allocation of a signature is a few bytes per cell of
    the limit, not the 4^n cells of the full tables."""
    limit = 1 << 14
    monkeypatch.setattr(vbf_mod, "_BATCH_CELL_LIMIT", limit)
    for e in (510, 3):                     # x^-1 and x^3 on 9 bits, both APN
        f = VBF.from_univariate(default_field(9), [(1, e)])
        assert f.degree == (8 if e == 510 else 2)
        ortho._ortho_cached.cache_clear()
        tracemalloc.start()
        try:
            sig = invariant_signature(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sig.apn and dict(sig.diff_spectrum)[2] == 511 * 256
        assert (sig.ortho_diff_spectrum is not None) == (e == 3)
        assert peak < 32 * limit, (e, peak)
