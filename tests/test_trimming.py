import concurrent.futures
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from apnkit import catalog, gf2, ortho, trimming, vbf
from apnkit.gf2 import inner_product
from apnkit.ortho import (
    invariant_signature, signature_keys, signature_of_key, signatures_of_tables,
)
from apnkit.trimming import (
    SIDES, Hyperplane, TrimDescriptor, _tables_for_alpha, apn_trims, descriptor_count,
    hyperplane_basis, project, recursive_witness, trim, trim_spectrum, trimming_graph,
)
from apnkit.vbf import (
    VBF, _ddt_blocks, _fwht, _mobius, _row_hists, _walsh_blocks, is_apn,
    random_ea_transform, random_function, random_quadratic, walsh,
)
from test_gf2 import _span_by_loop


def test_project_examples():
    # fixed points on the orthogonal side
    for x in (0b00, 0b10):
        assert project(0b01, 0b01, x) == x
    assert project(0b01, 0b01, 0b01) == 0     # beta maps to zero
    assert project(0b01, 0b01, 0b11) == 0b10
    with pytest.raises(ValueError):
        project(0b01, 0b10, 0b11)


def test_project_idempotent_into_orthogonal():
    rng = random.Random(0)
    for _ in range(100):
        beta = rng.randrange(1, 64)
        gamma = rng.randrange(1, 64)
        if inner_product(beta, gamma) != 1:
            continue
        x = rng.randrange(64)
        y = project(beta, gamma, x)
        assert inner_product(gamma, y) == 0
        assert project(beta, gamma, y) == y


def test_descriptor_validation():
    with pytest.raises(ValueError):
        Hyperplane(0)
    with pytest.raises(ValueError):
        Hyperplane(3, side="diagonal")
    with pytest.raises(ValueError):
        TrimDescriptor(Hyperplane(3), beta=1, epsilon=1, gamma=1)  # linear, eps != 0
    with pytest.raises(ValueError):
        TrimDescriptor(Hyperplane(3, "affine"), beta=1, epsilon=4, gamma=1)
    with pytest.raises(ValueError):
        TrimDescriptor(Hyperplane(3), beta=2, epsilon=0, gamma=1)  # <b,g> = 0
    d = TrimDescriptor.canonical(0b110, "affine", 0b101)
    assert d.epsilon == 0b010 and d.gamma == 0b001


def test_hyperplane_basis_properties():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randrange(2, 9)
        alpha = rng.randrange(1, 1 << n)
        basis = hyperplane_basis(alpha, n)
        assert len(basis) == n - 1
        for v in basis:
            assert inner_product(alpha, v) == 0
        span = {0}
        for v in basis:
            span |= {s ^ v for s in span}
        assert len(span) == 1 << (n - 1)
    for alpha in (0, 16, -1):
        with pytest.raises(ValueError, match="alpha must lie in"):
            hyperplane_basis(alpha, 4)


def test_trim_of_linear_is_affine():
    rng = random.Random(2)
    mat = gf2.random_invertible(5, rng)
    f = VBF(5, 5, [mat.mul_vec(x) ^ 0b10010 for x in range(32)])
    for _ in range(10):
        alpha, beta = rng.randrange(1, 32), rng.randrange(1, 32)
        side = rng.choice(SIDES)
        assert trim(f, TrimDescriptor.canonical(alpha, side, beta)).degree <= 1


def test_trim_degree_cannot_grow():
    rng = random.Random(3)
    for _ in range(10):
        f = random_function(5, 5, rng)
        d = TrimDescriptor.canonical(rng.randrange(1, 32), rng.choice(SIDES),
                                     rng.randrange(1, 32))
        assert trim(f, d).degree <= f.degree


def test_t6_unit_trim_recovers_gold5():
    t6 = catalog.t6()
    d = TrimDescriptor.canonical(1 << 5, "linear", 1 << 5)
    tr = trim(t6, d)
    assert tr == catalog.gold(5)
    assert invariant_signature(tr) == invariant_signature(catalog.gold(5))


def test_appendix_mask_trims():
    cur = catalog.appendix_r()
    for k in range(8, 2, -1):
        d = TrimDescriptor.canonical(1 << (k - 1), "linear", 1 << (k - 1))
        nxt = trim(cur, d)
        mask = (1 << (k - 1)) - 1
        expect = [int(cur.table[x]) & mask for x in range(1 << (k - 1))]
        assert nxt.table.tolist() == expect
        assert is_apn(nxt)
        cur = nxt


def test_trim_matches_definition():
    """trim() against its docstring, with random valid (epsilon, gamma):
    inputs in the coordinates of hyperplane_basis(alpha), outputs projected
    and read through hyperplane_basis(gamma)."""
    rng = random.Random(40)
    n = 5
    f = random_function(n, n, rng)
    for _ in range(20):
        alpha, beta, side = rng.randrange(1, 32), rng.randrange(1, 32), rng.choice(SIDES)
        eps = 0 if side == "linear" else rng.choice(
            [e for e in range(32) if inner_product(alpha, e)])
        gamma = rng.choice([g for g in range(32) if inner_product(beta, g)])
        points = _span_by_loop(hyperplane_basis(alpha, n))
        coords = {v: c for c, v in enumerate(_span_by_loop(hyperplane_basis(gamma, n)))}
        want = [coords[project(beta, gamma, int(f.table[p ^ eps]))] for p in points]
        d = TrimDescriptor(Hyperplane(alpha, side), beta, eps, gamma)
        assert trim(f, d).table.tolist() == want


@pytest.mark.parametrize("alpha", [1, 0x8001, 0xffff])
def test_embedded_points_at_16_bits(alpha):
    points = trimming._embedded_points(alpha, 16)
    assert points.tolist() == _span_by_loop(hyperplane_basis(alpha, 16))


def test_trim_matches_project_at_16_bits():
    """trim() of a 16-bit function on an affine hyperplane against its
    definition, on 64 sampled points."""
    rng = random.Random(42)
    n = 16
    f = random_function(n, n, rng)
    alpha, beta = rng.randrange(1, 1 << n), rng.randrange(1, 1 << n)
    eps = rng.choice([e for e in range(1 << n) if inner_product(alpha, e)])
    gamma = rng.choice([g for g in range(1 << n) if inner_product(beta, g)])
    t = trim(f, TrimDescriptor(Hyperplane(alpha, "affine"), beta, eps, gamma))
    points = _span_by_loop(hyperplane_basis(alpha, n))
    coords = _span_by_loop(hyperplane_basis(gamma, n))
    for y in rng.sample(range(1 << (n - 1)), 64):
        assert coords[int(t.table[y])] == project(beta, gamma, f(eps ^ points[y]))


def test_trim_rejects_bad_inputs():
    with pytest.raises(ValueError):
        trim(random_function(4, 3, random.Random(4)),
             TrimDescriptor.canonical(1, "linear", 1))


def test_spectrum_total_count_n4():
    f = random_function(4, 4, random.Random(5))
    spec = trim_spectrum(f)
    assert spec.total == descriptor_count(4) == 450


def test_gold6_spectrum_has_no_apn_trims():
    spec = trim_spectrum(catalog.gold(6))
    assert spec.total == 2 * 63 * 63
    assert spec.apn_signatures() == []
    assert apn_trims(catalog.gold(6)) == []


def test_quadratic_reduced_spectrum():
    g6 = catalog.gold(6)
    full = trim_spectrum(g6)
    red = trim_spectrum(g6, quadratic_reduced=True)
    assert red.total == 63 * 63
    assert set(red.counts) == set(full.counts)
    cubic = VBF.from_univariate(gf2.default_field(5), [(1, 7)])
    with pytest.raises(ValueError):
        trim_spectrum(cubic, quadratic_reduced=True)


def test_epsilon_gamma_do_not_change_signature():
    # fixed (H, beta), random valid (epsilon, gamma) pairs
    g1 = catalog.g7(1)
    rng = random.Random(6)
    for _ in range(5):
        alpha, beta = rng.randrange(1, 128), rng.randrange(1, 128)
        side = rng.choice(SIDES)
        base = None
        for _ in range(8):
            eps = 0
            if side == "affine":
                while True:
                    eps = rng.randrange(1, 128)
                    if inner_product(alpha, eps) == 1:
                        break
            while True:
                gamma = rng.randrange(1, 128)
                if inner_product(beta, gamma) == 1:
                    break
            d = TrimDescriptor(Hyperplane(alpha, side), beta, eps, gamma)
            sig = invariant_signature(trim(g1, d))
            if base is None:
                base = sig
            assert sig == base


def test_trim_spectrum_is_ea_invariant():
    rng = random.Random(7)
    f = catalog.gold(5)
    base = trim_spectrum(f)
    for _ in range(3):
        g = random_ea_transform(f, rng)
        other = trim_spectrum(g)
        assert other.counts == base.counts
        assert other.total == descriptor_count(5)


def test_apn_trims_matches_naive_enumeration():
    g5 = catalog.gold(5)
    naive = set()
    for alpha in range(1, 32):
        for side in SIDES:
            for beta in range(1, 32):
                t = trim(g5, TrimDescriptor.canonical(alpha, side, beta))
                if is_apn(t):
                    naive.add(invariant_signature(t))
    assert naive == {sig for _, sig in apn_trims(g5)}
    assert len(naive) == 1


def test_apn_trims_witness_descriptors_verify():
    t6 = catalog.t6()
    found = apn_trims(t6)
    sigs = {sig for _, sig in found}
    assert invariant_signature(catalog.gold(5)) in sigs
    for d, sig in found:
        t = trim(t6, d)
        assert is_apn(t) and invariant_signature(t) == sig


def test_gold7_apn_trims_ground_truth():
    # exhaustively derived: exactly one APN trim class
    assert len(apn_trims(catalog.gold(7))) == 1


def test_recursive_witness_small_cases():
    assert [g.n for g in recursive_witness(catalog.gold(3))] == [3, 2]
    assert [g.n for g in recursive_witness(catalog.gold(4))] == [4, 3, 2]
    assert recursive_witness(catalog.gold(6)) is None
    with pytest.raises(ValueError):
        recursive_witness(VBF.identity(4))


def test_recursive_witness_chain_links_are_trims():
    chain = recursive_witness(catalog.gold(4))
    for parent, child in zip(chain, chain[1:]):
        assert child.n == parent.n - 1
        assert is_apn(child)
        child_sigs = {s for _, s in apn_trims(parent)}
        assert invariant_signature(child) in child_sigs


def test_recursive_witness_of_t8_1_is_none(monkeypatch):
    """T8_1's 768 APN trims form one class, G1's, and G1 has no APN trims:
    the search descends into the first trim only and skips the other 767 by
    signature."""
    apn_claims, descents = trimming._apn_claims, Counter()

    def counting(g):
        descents[g.n] += 1
        return apn_claims(g)

    monkeypatch.setattr(trimming, "_apn_claims", counting)
    assert recursive_witness(catalog.t8(1)) is None
    assert descents == {8: 1, 7: 1}


def test_recursive_witness_backtracks_past_a_dead_child(monkeypatch):
    """G3's first 6-bit child is made to dead-end: the search pops it, finds
    a chain through another class, and never descends into the dead
    signature again."""
    g3 = catalog.g7(3)
    assert len(apn_trims(g3)) == 3
    apn_claims, descents = trimming._apn_claims, []

    def first_child_dead_ends(g):
        if g.n == 6:
            descents.append(invariant_signature(g))
            if len(descents) == 1:
                return iter(()), None
        return apn_claims(g)

    monkeypatch.setattr(trimming, "_apn_claims", first_child_dead_ends)
    chain = recursive_witness(g3)
    assert [g.n for g in chain] == [7, 6, 5, 4, 3, 2]
    dead = descents[0]
    assert descents.count(dead) == 1 and invariant_signature(chain[1]) != dead


def test_trimming_graph_of_appendix_chain():
    # full APN-trim enumeration at dims 8..3 (under a second: every chain
    # member is quadratic). The chain path is contained in the graph; the
    # exhaustively derived totals are larger because the 7-bit chain member
    # has four APN trim classes.
    chain = recursive_witness(catalog.appendix_r())
    graph = trimming_graph(chain[:-1])
    keys = {(g.n, invariant_signature(g)) for g in chain}
    node_keys = {(v.dim, v.signature) for v in graph.nodes}
    assert keys <= node_keys
    edge_keys = {((a.dim, a.signature), (b.dim, b.signature))
                 for a, b in graph.edges}
    for parent, child in zip(chain, chain[1:]):
        assert ((parent.n, invariant_signature(parent)),
                (child.n, invariant_signature(child))) in edge_keys
    assert len(graph.nonisolated()) == 10
    assert len(graph.edges) == 9


def test_trimming_graph_isolated_and_edges():
    g6 = catalog.gold(6)
    graph = trimming_graph([g6])
    assert len(graph.edges) == 0
    assert graph.nonisolated() == set()

    graph2 = trimming_graph([catalog.t6(), catalog.gold(5)])
    t6_sig = invariant_signature(catalog.t6())
    g5_sig = invariant_signature(catalog.gold(5))
    pairs = {(a.dim, a.signature, b.dim, b.signature) for a, b in graph2.edges}
    assert (6, t6_sig, 5, g5_sig) in pairs

    with pytest.raises(ValueError):
        trimming_graph([VBF.identity(4)])


# ---------------------------------------------------------------------------
# functions of degree <= 2: derivative-table kernel against the table path
# ---------------------------------------------------------------------------

def _hyperplane_tables(f, alpha, side):
    """The tables of the trims (alpha, side, beta), beta = 1 .. 2^n - 1,
    under canonical epsilon and gamma."""
    ds = [TrimDescriptor.canonical(alpha, side, b) for b in range(1, 1 << f.n)]
    return _tables_for_alpha(f, [alpha] * len(ds), [d.epsilon for d in ds],
                             [d.beta for d in ds], [d.gamma for d in ds])


def _table_signatures(f, alpha, side):
    return signatures_of_tables(_hyperplane_tables(f, alpha, side), f.n - 1)


def _decoded(keys):
    return [signature_of_key(key) for key in keys]


def _quadratic_signatures(f, alpha, sides):
    pairs = trimming._pair_counts(f)
    half = trimming._restricted_ranks(pairs, f.n)
    return _decoded(trimming._quadratic_keys(f, [alpha], sides, pairs, half))


def _derivative_table(f, alpha):
    return trimming._derivative_tables(f, [alpha])[0]


def _half_ranks_one(d, n):
    """half[v], half the rank of the form v.d, for every v, from the Gram
    matrix of v.d on the coordinate basis of one hyperplane."""
    k = n - 1
    unit = 1 << np.arange(k)
    gram = d[np.ix_(unit, unit)]
    vs = np.arange(1 << n, dtype=np.uint16)
    bits = (np.bitwise_count(vs[:, None, None] & gram[None, :, :]) & 1).astype(np.uint16)
    rows = (bits << np.arange(k, dtype=np.uint16)).sum(axis=2, dtype=np.uint16)
    return (k - np.log2((gf2.span(rows) == 0).sum(axis=1)).astype(np.int64)) // 2


def _quadratic_counts_one(d, n):
    """The one-hyperplane quadratic kernel: ((dvals, ddt), (wvals, walsh)),
    ddt[beta - 1, j] DDT cells a != 0 of trim beta equal to dvals[j] and
    walsh[beta - 1, j] |Walsh| values of its components equal to wvals[j],
    from the derivative table d of one hyperplane alone: K = c_a(0) +
    c_a(beta) from the rows of d, and the rank of every form v.d from a
    Gram matrix spanned on that hyperplane."""
    k = n - 1
    size = 1 << k
    total = size * (size - 1)

    def zeros_first(counts):
        return np.concatenate([total - counts.sum(axis=1, keepdims=True), counts], axis=1)

    c = _row_hists(d, 1 << n)
    kern = c[1:, :1] + c[1:, 1:]
    j = np.arange(1, k + 1)
    per_k = _row_hists(np.log2(kern).astype(np.int64).T, k + 1)[:, 1:]
    ddt = zeros_first(per_k * (size >> j))
    onehot = _half_ranks_one(d, n)[None, :] == np.arange(k // 2 + 1)[:, None]
    comps = trimming._sums_over_orthogonal(onehot)[:, 1:].T
    r = np.arange(k // 2, -1, -1)
    walsh = zeros_first(comps[:, r] << 2 * r)
    return (np.append(0, 1 << j), ddt), (np.append(0, size >> r), walsh)


def _general_signatures(f, alpha, side, w=None):
    """The signatures of the trims on one side of hyperplane alpha, from the
    Walsh table w of f (taken here unless given)."""
    w = walsh(f) if w is None else w
    keys = trimming._general_keys(f, w, [alpha])
    per = (1 << f.n) - 1
    return _decoded(keys[:per] if side == "linear" else keys[per:])


def _table_spectra(f):
    """Trim spectrum counts per side, every trim classified by table."""
    want = {side: Counter() for side in SIDES}
    for alpha in range(1, 1 << f.n):
        for side in SIDES:
            want[side].update(_table_signatures(f, alpha, side))
    return want


def _every_trim(f):
    """Every trim (alpha, side, beta) of f in ascending order."""
    top = 1 << f.n
    return [(alpha, side, beta) for alpha in range(1, top) for side in SIDES
            for beta in range(1, top)]


def _quadratic_claims(f):
    """The trims the whole-space pass claims APN for f of degree <= 2."""
    return list(trimming._quadratic_apn_trims(trimming._pair_counts(f)))


def _iter_apn_trims_by_table(f, trims):
    """The APN trims among ``trims`` (alpha, side, beta), in their order,
    built and classified by table; with every trim claimed, the reference
    for trimming._iter_apn_trims, through which apn_trims and
    recursive_witness both find their trims."""
    n = f.n
    ds = [TrimDescriptor.canonical(*t) for t in trims]
    tabs = _tables_for_alpha(f, [d.hyperplane.alpha for d in ds], [d.epsilon for d in ds],
                             [d.beta for d in ds], [d.gamma for d in ds])
    apn = [i for i, t in enumerate(tabs) if is_apn(VBF(n - 1, n - 1, t))]
    for i, sig in zip(apn, signatures_of_tables(tabs[apn], n - 1)):
        yield ds[i], tabs[i], sig


def _apn_trims_and_witness_by_table(f, apn, monkeypatch):
    """apn_trims(f) and, if f is APN, recursive_witness(f), with every trim
    claimed and then built and classified by table; both must find their
    trims through the reference, or fast would be compared with fast."""
    seen = []

    def reference(g, trims, pairs):
        seen.append(g.n)
        return _iter_apn_trims_by_table(g, trims)

    with monkeypatch.context() as m:
        m.setattr(trimming, "_apn_claims", lambda g: (iter(_every_trim(g)), None))
        m.setattr(trimming, "_iter_apn_trims", reference)
        trims = apn_trims(f)
        assert seen and set(seen) == {f.n}
        chain = recursive_witness(f) if apn else None
        assert len(seen) > 1 or not apn or f.n == 2
    return trims, chain


@pytest.mark.parametrize("n", range(3, 10))
def test_quadratic_kernel_matches_tables_per_hyperplane(n):
    rng = random.Random(100 + n)
    f = random_quadratic(n, n, rng)
    for _ in range(1 if n == 9 else 3):
        alpha = rng.randrange(1, 1 << n)
        want = [_table_signatures(f, alpha, side) for side in SIDES]
        assert _quadratic_signatures(f, alpha, ("linear",)) == want[0]
        assert _quadratic_signatures(f, alpha, SIDES) == want[0] + want[1]


@pytest.mark.parametrize("name", ["T8_1", "gold7"])
def test_quadratic_kernel_matches_tables_where_trims_are_apn(name):
    """The kernel's APN trims of degree 2 get their DDT and |Walsh| spectra
    from its own columns and only their ortho spectra from tables: against
    every trim classified by table, on every hyperplane of T8_1 that holds
    APN trims (3 of 128 each) and on a few of gold7's (1 each)."""
    f = catalog.fixture(name)
    alphas = sorted({alpha for alpha, _, _ in _quadratic_claims(f)})
    if name == "T8_1":
        assert len(alphas) == 3
    else:
        assert len(alphas) == 127
        alphas = random.Random(name).sample(alphas, 4)
    for alpha in alphas:
        want = _table_signatures(f, alpha, "linear")
        apn = [s for s in want if s.apn]
        assert len(apn) == (128 if name == "T8_1" else 1)
        assert all(s.degree == 2 and s.ortho_diff_spectrum is not None for s in apn)
        assert _quadratic_signatures(f, alpha, ("linear",)) == want


def test_trim_spectrum_ortho_stacks_follow_the_cell_limit(monkeypatch):
    """With room for 3 five-bit tables per stack (2^18 cells each), the APN
    trims of a T6 copy, 32 on each of 3 hyperplanes, take their
    ortho-derivatives in stacks of at most 3, and the spectrum is the
    same."""
    f = random_ea_transform(catalog.t6(), random.Random(23))
    want = trim_spectrum(f)
    stacks = []
    ortho_derivatives = ortho._ortho_derivatives

    def recording(tabs, k):
        stacks.append(tabs.shape[0])
        return ortho_derivatives(tabs, k)

    monkeypatch.setattr(ortho, "_ortho_derivatives", recording)
    monkeypatch.setattr(vbf, "_BATCH_CELL_LIMIT", 3 << 18)
    assert trim_spectrum(f) == want
    assert max(stacks) == 3 and sum(stacks) >= 3 * 32


QUADRATIC_INPUTS = {
    "random_quadratic(5, 5)": lambda rng: random_quadratic(5, 5, rng),
    "random_quadratic(6, 6) homogeneous":
        lambda rng: random_quadratic(6, 6, rng, homogeneous=True),
    "random_quadratic(6, 3) padded": lambda rng: VBF(6, 6, random_quadratic(6, 3, rng).table),
    "random_quadratic(5, 1) padded": lambda rng: VBF(5, 5, random_quadratic(5, 1, rng).table),
    "random_quadratic(2, 2)": lambda rng: random_quadratic(2, 2, rng),
    # every trim on 1-orthogonal is constant and its first trim of degree 1
    # is on the affine side
    "x0*x1 on 2 bits": lambda rng: VBF(2, 2, [0, 0, 0, 1]),
    "identity": lambda rng: VBF.identity(5),
    "constant": lambda rng: VBF.constant(5, 5, 6),
    "gold4 copy": lambda rng: random_ea_transform(catalog.gold(4), rng),
    "T6 copy": lambda rng: random_ea_transform(catalog.t6(), rng),
    "G1 copy": lambda rng: random_ea_transform(catalog.g7(1), rng),
}


def _quadratic_input(name):
    return QUADRATIC_INPUTS[name](random.Random(name))


@pytest.fixture
def by_table(monkeypatch):
    """Counts the trim tables built, and the tables that go through the DDT
    histogram: trims classified by table, and ortho-derivatives."""
    seen = Counter()
    tables, ddt_hist = trimming._tables_for_alpha, vbf._diff_counts_batch

    def counting_tables(f, *args):
        out = tables(f, *args)
        seen["trims"] += out.shape[0]
        return out

    def counting_ddt_hist(tabs, m):
        seen["ddt"] += tabs.shape[0]
        return ddt_hist(tabs, m)

    monkeypatch.setattr(trimming, "_tables_for_alpha", counting_tables)
    monkeypatch.setattr(vbf, "_diff_counts_batch", counting_ddt_hist)
    return seen


def _assert_spectrum_table_work(seen, counts):
    """A spectrum built as tables at most the APN trims of degree 2 in
    ``counts``, and took one DDT histogram for each: that of its
    ortho-derivative."""
    apn2 = sum(c for s, c in counts.items() if s.apn and s.degree == 2)
    assert seen["trims"] <= apn2
    assert seen["ddt"] <= apn2
    seen.clear()


def _assert_apn_trims_table_work(seen, counts):
    """apn_trims built and classified by table at most the APN trims in
    ``counts``, each with at most one ortho-derivative."""
    apn = sum(c for s, c in counts.items() if s.apn)
    assert seen["trims"] <= apn
    assert seen["ddt"] <= 2 * apn
    seen.clear()


@pytest.mark.parametrize("name", QUADRATIC_INPUTS)
def test_quadratic_trim_spectrum_matches_tables(name, by_table):
    f = _quadratic_input(name)
    assert f.degree <= 2
    want = _table_spectra(f)
    full = want["linear"] + want["affine"]
    by_table.clear()
    assert trim_spectrum(f).counts == dict(full)
    _assert_spectrum_table_work(by_table, full)
    assert trim_spectrum(f, quadratic_reduced=True).counts == dict(want["linear"])
    _assert_spectrum_table_work(by_table, want["linear"])


def _classified_by_table(g, trims, pairs):
    """trimming._iter_apn_trims with the claims classified by table, the
    path of degree > 2 input: the reference for classifying off pairs."""
    if not trims:
        return
    k = g.n - 1
    tabs = trimming._canonical_tables(g, trims)
    for t, tab, sig in zip(trims, tabs, signatures_of_tables(tabs, k)):
        assert sig.apn
        yield TrimDescriptor.canonical(*t), tab, sig


APN_TRIM_INPUTS = {
    **{f"{name} copy": (lambda name: lambda: random_ea_transform(
        catalog.fixture(name), random.Random(name)))(name)
       for name in ["gold5", "gold7", "T6", "G1", "G2", "G3", "G4", "appendixA_R", "T8_1"]},
    "x^3 over F_2^9": lambda: VBF.from_univariate(gf2.default_field(9), [(1, 3)]),
}


@pytest.mark.parametrize("name", APN_TRIM_INPUTS)
def test_quadratic_apn_trims_match_the_table_path(name, monkeypatch):
    """Claims classified off the pair counts give what the table path gives
    them: for each signature its first descriptor in claim order, and for
    the APN inputs with n <= 7 the same recursive chain."""
    f = APN_TRIM_INPUTS[name]()
    assert f.degree == 2
    fast = apn_trims(f)
    witness = f.n <= 7 and is_apn(f)
    fast_chain = recursive_witness(f) if witness else None
    monkeypatch.setattr(trimming, "_iter_apn_trims", _classified_by_table)
    assert fast == apn_trims(f)
    if witness:
        assert fast_chain == recursive_witness(f)


def test_apn_trims_build_a_vbf_only_for_a_descent(monkeypatch):
    """apn_trims of a gold7 copy wraps none of its 127 claimed trims in a
    VBF, and recursive_witness wraps one trim per link of the chain."""
    built = []

    class CountingVBF(VBF):
        def __init__(self, n, m, table):
            built.append(n)
            super().__init__(n, m, table)

    monkeypatch.setattr(trimming, "VBF", CountingVBF)
    f = random_ea_transform(catalog.fixture("gold7"), random.Random(7))
    assert len(apn_trims(f)) == 1 and built == []
    chain = recursive_witness(f)
    assert [g.n for g in chain] == [7, 6, 5, 4, 3, 2]
    assert built == [6, 5, 4, 3, 2]


def test_quadratic_apn_trims_take_one_ddt_histogram_per_trim(by_table):
    """A gold7 copy's 127 APN trims are built as tables once, and only their
    ortho-derivatives go through the DDT histogram."""
    f = random_ea_transform(catalog.fixture("gold7"), random.Random(7))
    by_table.clear()
    assert len(apn_trims(f)) == 1
    assert by_table == {"trims": 127, "ddt": 127}


@pytest.mark.parametrize("name", QUADRATIC_INPUTS)
def test_quadratic_apn_trims_and_witness_match_tables(name, by_table, monkeypatch):
    f = _quadratic_input(name)
    spectrum = trim_spectrum(f)
    by_table.clear()
    fast = apn_trims(f)
    _assert_apn_trims_table_work(by_table, spectrum.counts)
    apn = is_apn(f)
    fast_chain = recursive_witness(f) if apn else None
    assert (fast, fast_chain) == _apn_trims_and_witness_by_table(f, apn, monkeypatch)


def test_quadratic_kernel_disagreement_is_an_internal_error(monkeypatch):
    f = catalog.gold(5)
    monkeypatch.setattr(trimming, "_quadratic_apn_trims", lambda pairs: (
        t for t in _every_trim(f) if t[1] == "linear"))
    with pytest.raises(RuntimeError):
        apn_trims(f)
    with pytest.raises(RuntimeError):
        recursive_witness(f)
    monkeypatch.undo()

    quadratic_columns = trimming._quadratic_columns

    def all_apn(g, alphas, pairs, half):
        # every trim claimed APN: half of its DDT cells a != 0 equal 2
        (_, ddt), walsh = quadratic_columns(g, alphas, pairs, half)
        size = 1 << (g.n - 1)
        return (np.array([0, 2]), np.full(ddt.shape[:2] + (2,), size * (size - 1) // 2)), walsh

    monkeypatch.setattr(trimming, "_quadratic_columns", all_apn)
    with pytest.raises(RuntimeError):
        trim_spectrum(f)


def _random_affine(n, rng):
    return vbf.vbf_from_anf(n, n, [rng.getrandbits(n) if u.bit_count() <= 1 else 0
                                   for u in range(1 << n)])


CLAIM_INPUTS = {
    **{f"random_quadratic({n}, {n})": (lambda n: lambda rng: random_quadratic(n, n, rng))(n)
       for n in range(2, 8)},
    "random_quadratic(5, 5) homogeneous":
        lambda rng: random_quadratic(5, 5, rng, homogeneous=True),
    "gold3 copy": lambda rng: random_ea_transform(catalog.gold(3), rng),
    "gold5 copy": lambda rng: random_ea_transform(catalog.gold(5), rng),
    "gold6 copy": lambda rng: random_ea_transform(catalog.gold(6), rng),
    "T6 copy": lambda rng: random_ea_transform(catalog.t6(), rng),
    "random affine(2)": lambda rng: _random_affine(2, rng),
    "random affine(4)": lambda rng: _random_affine(4, rng),
    "identity(3)": lambda rng: VBF.identity(3),
    "x0*x1 on 2 bits": lambda rng: VBF(2, 2, [0, 0, 0, 1]),
}


@pytest.mark.parametrize("name", CLAIM_INPUTS)
def test_quadratic_claims_match_tables_on_every_hyperplane(name):
    """The whole-space pass claims exactly the trims that are APN by table:
    on the linear side, and for n = 2 also on the affine side. An
    affine-side trim is APN iff its linear twin is, so for n > 2 leaving
    that side out misses no APN trim class."""
    f = CLAIM_INPUTS[name](random.Random(name))
    assert f.degree <= 2
    n = f.n
    apn = {side: [(alpha, beta + 1) for alpha in range(1, 1 << n)
                  for beta, t in enumerate(_hyperplane_tables(f, alpha, side))
                  if is_apn(VBF(n - 1, n - 1, t))] for side in SIDES}
    assert apn["affine"] == apn["linear"]
    sides = SIDES if n == 2 else ("linear",)
    want = sorted(((alpha, side, beta) for alpha, beta in apn["linear"] for side in sides),
                  key=lambda t: (t[0], SIDES.index(t[1]), t[2]))
    assert _quadratic_claims(f) == want


def _apn_betas_of_hyperplane(f, alpha):
    """The betas whose linear-side trim on alpha-orthogonal is APN, read off
    that hyperplane's derivative table D alone: every row a != 0 of D has
    exactly two zeros, and beta occurs nowhere in D."""
    d = _derivative_table(f, alpha)
    if ((d[1:] == 0).sum(axis=1) != 2).any():
        return []
    absent = np.bincount(d.ravel(), minlength=1 << f.n)[1:] == 0
    return (np.flatnonzero(absent) + 1).tolist()


@pytest.mark.parametrize("name", ["gold7", "appendixA_R", "T8_1"])
def test_quadratic_claims_match_the_per_hyperplane_criterion(name):
    f = catalog.fixture(name)
    want = [(alpha, "linear", beta) for alpha in range(1, 1 << f.n)
            for beta in _apn_betas_of_hyperplane(f, alpha)]
    assert want
    assert _quadratic_claims(f) == want


def test_quadratic_claims_chunked_path(monkeypatch):
    """Blocks of 3 rows at n = 7 and 6 at n = 6, the last one shorter, give
    the claims of one block."""
    inputs = [catalog.fixture("gold7"), catalog.fixture("G3"), catalog.t6(),
              random_quadratic(6, 6, random.Random(3))]
    want = [_quadratic_claims(f) for f in inputs]
    blocks = []
    row_chunks = trimming._row_chunks

    def recording(*args):
        for lo, hi in row_chunks(*args):
            blocks.append(hi - lo)
            yield lo, hi

    monkeypatch.setattr(trimming, "_row_chunks", recording)
    monkeypatch.setattr(vbf, "_BATCH_CELL_LIMIT", 3 << 15)
    assert [_quadratic_claims(f) for f in inputs] == want
    assert max(blocks) == 6 and set(blocks) >= {2, 3, 4}


def _peak_rss_growth_mb(setup):
    """How far peak RSS grows, in MB, while a fresh interpreter calls the
    ``run`` that the code ``setup`` defines."""
    code = textwrap.dedent(setup) + textwrap.dedent("""
        import resource
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run()
        print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
    """)
    src = str(Path(trimming.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return float(out.stdout)


def test_quadratic_claims_peak_rss_at_11_bits():
    """The whole-space pass at n = 11 keeps its 2^22 counts in int32 and its
    temporaries in blocks: peak RSS grows by under 48 MB. In blocks of the
    full cell limit, here one block, it grew by about 110 MB."""
    assert _peak_rss_growth_mb("""
        import random
        from apnkit import trimming
        from apnkit.vbf import random_quadratic
        f = random_quadratic(11, 11, random.Random(11))
        run = lambda: list(trimming._quadratic_apn_trims(trimming._pair_counts(f)))
    """) < 48


def test_recursive_witness_takes_one_claim_pass_per_node(monkeypatch):
    """Each node of the search gets its claims from one whole-space pass,
    and its trims are classified one hyperplane at a time."""
    passes, hyperplanes = Counter(), []
    pair_counts, iter_apn_trims = trimming._pair_counts, trimming._iter_apn_trims

    def counting_claims(g):
        passes[g.table.tobytes()] += 1
        return pair_counts(g)

    def recording(g, trims, pairs):
        hyperplanes.append({t[0] for t in trims})
        return iter_apn_trims(g, trims, pairs)

    monkeypatch.setattr(trimming, "_pair_counts", counting_claims)
    monkeypatch.setattr(trimming, "_iter_apn_trims", recording)
    chain = recursive_witness(random_ea_transform(catalog.fixture("gold7"), random.Random(7)))
    assert [g.n for g in chain] == [7, 6, 5, 4, 3, 2]
    assert set(passes.values()) == {1} and len(passes) >= 5
    assert all(len(h) == 1 for h in hyperplanes)


# ---------------------------------------------------------------------------
# functions of degree <= 2: whole-space tables against one hyperplane at a time
# ---------------------------------------------------------------------------

RANK_INPUTS = {
    **{f"random_quadratic({n}, {n})": (lambda n: lambda rng: random_quadratic(n, n, rng))(n)
       for n in range(2, 10)},
    "random affine(4)": lambda rng: _random_affine(4, rng),
    "random affine(6)": lambda rng: _random_affine(6, rng),
    "identity(2)": lambda rng: VBF.identity(2),
    "x0*x1 on 2 bits": lambda rng: VBF(2, 2, [0, 0, 0, 1]),
}


@pytest.mark.parametrize("name", RANK_INPUTS)
def test_restricted_ranks_match_per_hyperplane_ranks(name):
    """The rank rho of v.B on alpha-orthogonal, read off the Hadamard
    transform 2^(2k - rho) of the pair counts N(alpha, .): against the
    Gram matrix of every hyperplane (48 of them at n = 9)."""
    rng = random.Random(name)
    f = RANK_INPUTS[name](rng)
    n = f.n
    assert f.degree <= 2
    alphas = list(range(1, 1 << n)) if n < 9 else rng.sample(range(1, 1 << n), 48)
    half = trimming._restricted_ranks(trimming._pair_counts(f), n)
    assert half.dtype == np.int8 and half.shape == (1 << n, 1 << n)
    for alpha, d in zip(alphas, trimming._derivative_tables(f, alphas)):
        assert half[alpha].tolist() == _half_ranks_one(d, n).tolist()


COLUMN_INPUTS = {
    "gold5": lambda: catalog.gold(5),
    "T6": catalog.t6,
    "G1": lambda: catalog.g7(1),
    "gold7": lambda: catalog.gold(7),
    "T8_1": lambda: catalog.t8(1),
    "x^3 + Tr(x^9) on 9 bits": lambda: VBF.from_univariate(
        gf2.default_field(9), [(1, 3)] + [(1, (9 << i) % 511) for i in range(9)]),
    # 8 of its 63 hyperplanes have c_a(0) = 2 on every row a != 0, 55 not
    "random_quadratic(6, 6) not APN": lambda: random_quadratic(6, 6, random.Random(1)),
}


@pytest.mark.parametrize("name", COLUMN_INPUTS)
def test_whole_space_columns_match_the_one_hyperplane_kernel(name):
    """The DDT columns from the pair counts N(alpha, beta) where every K is 2
    or 4 (on every hyperplane of an APN function), from the hyperplane's
    own derivative table elsewhere, and the |Walsh| columns from the
    restricted ranks: against the one-hyperplane kernel on every
    hyperplane (64 of them at n = 9)."""
    f = COLUMN_INPUTS[name]()
    n = f.n
    alphas = np.arange(1, 1 << n)
    if n == 9:
        alphas = np.array(sorted(random.Random(name).sample(alphas.tolist(), 64)))
    pairs = trimming._pair_counts(f)
    pure = pairs[alphas, 0] == 3 * (1 << (n - 1)) - 2
    assert pure.all() == is_apn(f)
    if not pure.all():
        assert pure.sum() == 8
    (dvals, ddt), (wvals, walsh) = trimming._quadratic_columns(
        f, alphas, pairs, trimming._restricted_ranks(pairs, n))
    for alpha, dcol, wcol in zip(alphas.tolist(), ddt, walsh):
        (rdvals, rddt), (rwvals, rwalsh) = _quadratic_counts_one(_derivative_table(f, alpha), n)
        assert _by_value(dvals, dcol) == _by_value(rdvals, rddt)
        assert _by_value(wvals, wcol) == _by_value(rwvals, rwalsh)


def test_quadratic_spectrum_evaluates_derivatives_only_in_the_pair_count_pass(monkeypatch):
    """On APN input no hyperplane takes its own derivative table, and the
    ranks come from the pair counts: every derivative a quadratic spectrum
    evaluates is a block of rows a of _pair_counts's whole-space pass, 2^n
    columns each (a Gram matrix would be n x n)."""
    shapes = []
    derivative = trimming.derivative

    def recording(*args):
        out = derivative(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(trimming, "derivative", recording)
    for f, reduced in ((random_ea_transform(catalog.g7(1), random.Random(1)), True),
                       (catalog.t6(), False)):
        shapes.clear()
        trim_spectrum(f, reduced)
        assert shapes and all(len(s) == 2 and s[1] == 1 << f.n for s in shapes)


def test_quadratic_spectrum_chunked_path(monkeypatch):
    """Blocks of 3 hyperplanes and one block of rows v at n = 6, then blocks
    of one hyperplane and 3 rows v, give the spectra of one block."""
    inputs = [catalog.t6(), random_ea_transform(catalog.gold(6), random.Random(6)),
              random_quadratic(6, 6, random.Random(1))]
    want = [[trim_spectrum(f, reduced) for reduced in (False, True)] for f in inputs]
    stacks, rows = [], []

    def recording(log, chunks):
        def wrapper(*args):
            for lo, hi in chunks(*args):
                log.append(hi - lo)
                yield lo, hi
        return wrapper

    monkeypatch.setattr(trimming, "_stacks", recording(stacks, trimming._stacks))
    monkeypatch.setattr(trimming, "_row_chunks", recording(rows, trimming._row_chunks))
    for limit, stack, row in ((3 << 19, 3, 64), (3 << 14, 1, 3)):
        monkeypatch.setattr(vbf, "_BATCH_CELL_LIMIT", limit)
        assert [[trim_spectrum(f, reduced) for reduced in (False, True)]
                for f in inputs] == want
        assert set(stacks) == {stack} and max(rows) == row
        stacks.clear()
        rows.clear()


def test_quadratic_spectrum_share_peak_rss_at_11_bits():
    """A share of two hyperplanes of x^3 on 11 bits reads its columns off
    the whole-space tables, 4^11 int32 pair counts and int8 ranks: peak RSS
    grows by under 48 MB (about 23 MB measured; about 93 MB with one
    derivative table and its histograms per hyperplane)."""
    assert _peak_rss_growth_mb("""
        from apnkit import gf2, trimming
        from apnkit.vbf import VBF
        f = VBF.from_univariate(gf2.default_field(11), [(1, 3)])
        run = lambda: trimming._spectrum_share(f.table, 11, range(1, 3), True)
    """) < 48


def test_one_bit_functions_have_no_trims():
    f = VBF.identity(1)
    assert is_apn(f)
    for call in (apn_trims, recursive_witness, lambda g: trimming_graph([g]),
                 trim_spectrum):
        with pytest.raises(ValueError, match="n >= 2"):
            call(f)


def test_trim_spectrum_needs_square_functions():
    with pytest.raises(ValueError):
        trim_spectrum(random_function(4, 3, random.Random(12)))


@pytest.mark.parametrize("name", ["G1", "T8_1"])
def test_derivative_table_matches_definition(name):
    """D[x, y] = F(x) + F(y) + F(x + y) + F(0) over the embedded points of
    every hyperplane alpha-orthogonal."""
    f = catalog.fixture(name)
    n = f.n
    tab = f.table.astype(np.int64)
    alphas = range(1, 1 << n)
    for alpha, d in zip(alphas, trimming._derivative_tables(f, alphas)):
        p = trimming._embedded_points(alpha, n).astype(np.int64)
        want = tab[p[:, None]] ^ tab[p[None, :]] ^ tab[p[:, None] ^ p[None, :]] ^ tab[0]
        assert np.array_equal(d, want)


def _spectrum_inputs():
    return [(catalog.gold(5), False), (_field_power(5, 7), False),
            (catalog.g7(1), True)]


def test_trim_spectrum_workers_match_serial():
    for f, reduced in _spectrum_inputs():
        serial = trim_spectrum(f, reduced)
        assert trim_spectrum(f, reduced, workers=2) == serial


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in
    this process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_trim_spectrum_pool_size_is_capped(monkeypatch):
    """A pool has min(workers, 2^n - 1, CPU count) processes; with one CPU,
    or an unknown count, the spectrum runs in process."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    _SerialPool.created.clear()
    for f, reduced in _spectrum_inputs():
        serial = trim_spectrum(f, reduced)
        assert _SerialPool.created == []
        top = (1 << f.n) - 1
        for cpus, workers, started in ((1000, 2, [2]), (1000, 3, [3]), (1000, 1 << f.n, [top]),
                                       (1000, 5000, [top]), (4, 100_000, [4]), (4, 3, [3]),
                                       (1, 100_000, []), (None, 100_000, [])):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert trim_spectrum(f, reduced, workers=workers) == serial
            assert _SerialPool.created == started
            _SerialPool.created.clear()
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                trim_spectrum(f, reduced, workers=workers)
    assert _SerialPool.created == []


# ---------------------------------------------------------------------------
# functions of any degree: restricted-DDT, Walsh-matrix and ANF kernel against
# the table path
# ---------------------------------------------------------------------------

def _field_power(n, e):
    return VBF.from_univariate(gf2.default_field(n), [(1, e)])


def _gold5_plus_cubic():
    # degree 3, 82 APN trims of degree 2 (ortho spectra by table), 2 APN
    # trim classes
    x = np.arange(32)
    return VBF(5, 5, catalog.gold(5).table ^ ((x & 7) == 7).astype(np.uint16))


GENERAL_INPUTS = {
    **{f"random_function({n}, {n})": (lambda n: lambda rng: random_function(n, n, rng))(n)
       for n in range(3, 9)},
    "x^126 copy": lambda rng: random_ea_transform(_field_power(7, 126), rng),
    "x^7 over F_64": lambda rng: _field_power(6, 7),
    "x^30 over F_32": lambda rng: _field_power(5, 30),
    "gold5 + x0*x1*x2": lambda rng: _gold5_plus_cubic(),
}
SMALL_GENERAL_INPUTS = [name for name in GENERAL_INPUTS
                        if GENERAL_INPUTS[name](random.Random(name)).n <= 6]


def _general_input(name):
    f = GENERAL_INPUTS[name](random.Random(name))
    assert f.degree > 2
    return f


@pytest.mark.parametrize("name", GENERAL_INPUTS)
def test_general_kernel_matches_tables_per_hyperplane(name):
    f = _general_input(name)
    rng = random.Random(name)
    for _ in range(1 if f.n == 8 else 3):
        alpha = rng.randrange(1, 1 << f.n)
        for side in SIDES:
            assert _general_signatures(f, alpha, side) == _table_signatures(f, alpha, side)


@pytest.mark.parametrize("name", SMALL_GENERAL_INPUTS)
def test_general_trim_spectrum_matches_tables(name, by_table):
    f = _general_input(name)
    want = _table_spectra(f)
    full = want["linear"] + want["affine"]
    by_table.clear()
    assert trim_spectrum(f).counts == dict(full)
    _assert_spectrum_table_work(by_table, full)


@pytest.mark.parametrize("name", SMALL_GENERAL_INPUTS)
def test_general_apn_trims_and_witness_match_tables(name, by_table, monkeypatch):
    f = _general_input(name)
    spectrum = trim_spectrum(f)
    by_table.clear()
    fast = apn_trims(f)
    _assert_apn_trims_table_work(by_table, spectrum.counts)
    fast_chain = recursive_witness(f) if is_apn(f) else None
    assert (fast, fast_chain) == _apn_trims_and_witness_by_table(f, is_apn(f), monkeypatch)


def test_kernels_match_tables_at_9_bits():
    """Above n = 8: the derivative-table kernel on the quadratic APN
    x^3 + Tr(x^9) and the general kernel on the APN x^-1, against every
    trim of a hyperplane classified by table."""
    spec = gf2.default_field(9)
    quad = VBF.from_univariate(spec, [(1, 3)] + [(1, (9 << i) % 511) for i in range(9)])
    assert quad.degree == 2 and is_apn(quad)
    linear = _table_signatures(quad, 0x1a5, "linear")
    assert _quadratic_signatures(quad, 0x1a5, ("linear",)) == linear
    both = Counter(linear + _table_signatures(quad, 0x1a5, "affine"))
    share = trimming._spectrum_share(quad.table, 9, [0x1a5], False)
    assert Counter(_decoded(share.elements())) == both
    inverse = _field_power(9, 510)
    assert inverse.degree == 8 and is_apn(inverse)
    for alpha, side in ((1, "affine"), (0x0ee, "linear")):
        assert _general_signatures(inverse, alpha, side) == _table_signatures(inverse, alpha, side)
    _assert_columns_match_one_side(inverse, walsh(inverse), [1, 0x0ee])


def test_general_kernel_chunked_path(monkeypatch):
    """The Walsh tables are taken before the limit is lowered: vbf.walsh
    refuses a table above it."""
    inputs = [random_function(6, 6, random.Random(13)), _field_power(6, 7),
              _gold5_plus_cubic()]
    ws = [walsh(f) for f in inputs]
    want = [[_general_signatures(f, alpha, side, w) for alpha in (1, 6, 29)
             for side in SIDES] for f, w in zip(inputs, ws)]
    monkeypatch.setattr(vbf, "_BATCH_CELL_LIMIT", 200)
    got = [[_general_signatures(f, alpha, side, w) for alpha in (1, 6, 29)
            for side in SIDES] for f, w in zip(inputs, ws)]
    assert got == want


def test_degree_3_functions_above_12_bits_are_refused_before_any_side(monkeypatch):
    """Trims of degree > 2 are read off the Walsh table, which vbf.walsh
    refuses above 2^24 cells: at n = 13 trim_spectrum and apn_trims raise
    its ValueError before they read any hyperplane."""
    def no_side_work(*args):
        raise AssertionError("a hyperplane was read")

    monkeypatch.setattr(trimming, "_side_moments", no_side_work)
    monkeypatch.setattr(trimming, "_restricted_values", no_side_work)
    f = random_function(13, 13, random.Random(13))
    assert f.degree > 2
    for call in (trim_spectrum, apn_trims):
        with pytest.raises(ValueError, match="Walsh table too large"):
            call(f)


def test_general_kernel_disagreement_is_an_internal_error(monkeypatch):
    """Every side pure and every trim claimed APN by its moments: apn_trims
    finds tables that are not APN, and the spectrum finds trims of degree 2
    whose ortho-derivative fails."""
    f = _gold5_plus_cubic()
    side_moments = trimming._side_moments

    def all_apn(w, alphas, n):
        walsh_cols, s2 = side_moments(w, alphas, n)
        k = n - 1
        s1 = (1 << k) * ((1 << k) - 1)
        s2 = np.full_like(s2, 2 * s1)
        s2[:, 0] = (1 << 2 * k) + 4 * s1
        return walsh_cols, s2

    monkeypatch.setattr(trimming, "_side_moments", all_apn)
    with pytest.raises(RuntimeError):
        apn_trims(f)
    with pytest.raises(RuntimeError):
        trim_spectrum(f)


def _general_claims_one_side_at_a_time(f):
    """The claims of the DDT kernel run on one hyperplane side at a time."""
    for alpha in range(1, 1 << f.n):
        for side in SIDES:
            vals, counts = trimming._trim_ddt_counts(
                trimming._restricted_values(f, [(alpha, side)]), f.n)
            for beta in (np.flatnonzero(~counts[0][:, vals > 2].any(axis=1)) + 1).tolist():
                yield alpha, side, beta


@pytest.mark.parametrize("name", [name for name in GENERAL_INPUTS
                                  if GENERAL_INPUTS[name](random.Random(name)).n <= 7])
def test_stacked_general_claims_match_one_side_at_a_time(name):
    f = _general_input(name)
    claims = list(trimming._general_apn_trims(f))
    assert claims == list(_general_claims_one_side_at_a_time(f))
    if name == "gold5 + x0*x1*x2":
        assert claims


def test_stacked_general_claims_follow_the_cell_limit(monkeypatch):
    """With room for 3 five-bit hyperplanes per stack (2^17 cells per side,
    both sides of each), the claims come in 10 stacks of 3 hyperplanes and
    one of 1, the same claims in the same order, and the first claim, on
    the first side, needs only the first stack."""
    f = _gold5_plus_cubic()
    want = list(trimming._general_apn_trims(f))
    stacks = []
    side_moments = trimming._side_moments

    def recording(w, alphas, n):
        stacks.append(len(alphas))
        return side_moments(w, alphas, n)

    monkeypatch.setattr(trimming, "_side_moments", recording)
    monkeypatch.setattr(vbf, "_BATCH_CELL_LIMIT", 3 << 18)
    assert list(trimming._general_apn_trims(f)) == want
    assert stacks == [3] * 10 + [1]
    stacks.clear()
    assert next(trimming._general_apn_trims(f)) == want[0] == (1, "linear", 2)
    assert stacks == [3]


# ---------------------------------------------------------------------------
# stacked general kernels and keyed spectra, against the one-hyperplane
# kernels and the counting of one signature object per trim they replaced
# ---------------------------------------------------------------------------

def _ddt_counts_one(v, n):
    """The one-hyperplane DDT kernel: (values, counts) with counts[beta - 1,
    j] DDT cells a != 0 of trim beta equal to values[j], from the values v
    of F on one hyperplane."""
    seen = np.zeros(v.size + 1, dtype=bool)
    for _, delta in _ddt_blocks(v[None, :], n):
        seen[delta] = True
    vals = np.flatnonzero(seen)
    sums, pair = np.unique(vals[:, None] + vals[None, :], return_inverse=True)
    to_sum = (pair.reshape(-1, 1) == np.arange(sums.size)).astype(np.int64)
    acc = np.zeros((1 << n, sums.size), dtype=np.int64)
    for _, block in _ddt_blocks(v[None, :], n, row_cells=vals.size << n):
        delta = block[0]
        spec = np.empty((delta.shape[0], vals.size, 1 << n), dtype=np.int64)
        spec[:, 1:] = _fwht((delta[:, None, :] == vals[1:, None]).astype(np.int64))
        spec[:, 0] = -spec[:, 1:].sum(axis=1)
        spec[:, 0, 0] += 1 << n
        spec = spec.transpose(2, 0, 1)                   # (c, a, s)
        prod = np.matmul(spec.transpose(0, 2, 1), spec)  # (c, s, t)
        acc += prod.reshape(1 << n, -1) @ to_sum
    counts = _fwht(np.ascontiguousarray(acc.T)) >> (n + 1)
    return sums, counts[:, 1:].T


def _walsh_counts_one(v, n):
    """The one-hyperplane |Walsh| kernel, (values, counts) as above."""
    cols = {}
    for lo, w in _walsh_blocks(v[None, :], n):
        h = _row_hists(np.abs(w[0], out=w[0]), v.size + 1)
        for val in np.flatnonzero(h.any(axis=0)).tolist():
            cols.setdefault(val, np.zeros(1 << n, dtype=np.int64))[lo:lo + len(h)] = h[:, val]
    vals = sorted(cols)
    h = np.array([cols[x] for x in vals])
    h[:, 0] = 0
    counts = (h.sum(axis=1, keepdims=True) + _fwht(h)) // 2
    return np.array(vals), counts[:, 1:].T


def _degrees_one(v, n):
    """The one-hyperplane degree kernel."""
    top = np.zeros(1 << n, dtype=np.int64)
    np.maximum.at(top, _mobius(v), np.bitwise_count(np.arange(v.size)))
    top[0] = 0
    word = int(np.argmax(top))
    deg = np.full(1 << n, top[word])
    top[word] = 0
    deg[word] = top.max()
    return deg[1:]


def _by_value(vals, counts):
    """{value: column of counts} without the columns that are all 0."""
    return {int(x): counts[:, j].tolist() for j, x in enumerate(vals) if counts[:, j].any()}


def _delta_values(v, n):
    return tuple(np.unique(np.concatenate([b.ravel() for _, b in _ddt_blocks(v[None, :], n)])))


def _sampled_alphas(f, name):
    """Every hyperplane alpha up to n = 7, 8 sampled ones above."""
    top = 1 << f.n
    return range(1, top) if f.n <= 7 else sorted(random.Random(name).sample(range(1, top), 8))


def _pure(s2, n):
    """The moment purity flag of each side, from its s2 row."""
    k = n - 1
    return s2[:, 0] == (1 << 2 * k) + 4 * (1 << k) * ((1 << k) - 1)


def _assert_columns_match_one_side(f, w, alphas):
    """_general_columns of the sides of ``alphas`` against the one-hyperplane
    kernels, side by side."""
    n = f.n
    (dvals, ddt), (wvals, walsh_counts) = trimming._general_columns(f, w, alphas)
    sides = [(alpha, side) for alpha in alphas for side in SIDES]
    assert ddt.shape[:2] == walsh_counts.shape[:2] == (len(sides), (1 << n) - 1)
    for h, row in enumerate(trimming._restricted_values(f, sides)):
        assert _by_value(dvals, ddt[h]) == _by_value(*_ddt_counts_one(row, n))
        assert _by_value(wvals, walsh_counts[h]) == _by_value(*_walsh_counts_one(row, n))


@pytest.mark.parametrize("name", GENERAL_INPUTS)
def test_stacked_kernels_match_the_one_hyperplane_kernels(name):
    """The columns read off the Walsh table, in the spectrum's stacks of
    hyperplanes, equal those of the one-hyperplane kernels on every side (8
    sampled hyperplanes at n = 8). The DDT kernel of the impure sides and
    the degree kernel take a stack of the sides of 3 random hyperplanes and
    the first side with each set of DDT values, so on the random functions
    it mixes sides whose values differ and the stack's values are their
    union."""
    f = _general_input(name)
    n = f.n
    every = [(alpha, side) for alpha in range(1, 1 << n) for side in SIDES]
    first = {}
    for h, row in zip(every, trimming._restricted_values(f, every)):
        first.setdefault(_delta_values(row, n), h)
    if name.startswith("random_function"):
        assert len(first) > 1
    rng = random.Random(name)
    hyperplanes = [(alpha, side) for alpha in rng.sample(range(1, 1 << n), 3)
                   for side in SIDES] + list(first.values())[:4]
    v = trimming._restricted_values(f, hyperplanes)
    dvals, ddt = trimming._trim_ddt_counts(v, n)
    degrees = trimming._trim_degrees(v, n)
    assert ddt.shape[:2] == degrees.shape == (len(v), (1 << n) - 1)
    for h, row in enumerate(v):
        assert _by_value(dvals, ddt[h]) == _by_value(*_ddt_counts_one(row, n))
        assert degrees[h].tolist() == _degrees_one(row, n).tolist()
    w = walsh(f)
    alphas = _sampled_alphas(f, name)
    for lo, hi in vbf._stacks(len(alphas), 1 << (2 * n)):
        _assert_columns_match_one_side(f, w, alphas[lo:hi])


@pytest.mark.parametrize("name", GENERAL_INPUTS)
def test_side_moments_give_ddt_squares_and_purity(name):
    """s2[h, beta] off the Walsh table is, for beta != 0, the sum of the
    squared DDT cells a != 0 of trim beta, taken from its table, and for beta
    = 0, 4^k + 2 sum of delta^2 over a != 0; a side is pure, its delta
    values 0 and 2 only, iff its flag says so. Every side up to n = 7, 8
    sampled hyperplanes at n = 8; gold5 + x0*x1*x2 has sides of both kinds."""
    f = _general_input(name)
    n = f.n
    k = n - 1
    alphas = _sampled_alphas(f, name)
    _, s2 = trimming._side_moments(walsh(f), alphas, n)
    sides = [(alpha, side) for alpha in alphas for side in SIDES]
    assert s2.shape == (len(sides), 1 << n)
    pure = _pure(s2, n)
    for h, (row, (alpha, side)) in enumerate(zip(trimming._restricted_values(f, sides), sides)):
        delta = np.concatenate([b.ravel() for _, b in _ddt_blocks(row[None, :], n)])
        assert s2[h, 0] == (1 << 2 * k) + 2 * int((delta ** 2).sum())
        assert pure[h] == (set(_delta_values(row, n)) <= {0, 2})
        hist = vbf._diff_counts_batch(_hyperplane_tables(f, alpha, side), k)
        assert s2[h, 1:].tolist() == (hist @ np.arange(hist.shape[1]) ** 2).tolist()
    if name == "gold5 + x0*x1*x2":
        assert 0 < pure.sum() < pure.size


def test_mixed_stacks_of_an_x254_copy(monkeypatch):
    """Every hyperplane of this copy of x^254 over F_256 has one pure and one
    impure side, so each stack mixes both; its columns and spectrum share
    match the one-hyperplane kernels and the tables, also with room for a
    few rows v of the Walsh table per block."""
    f = random_ea_transform(_field_power(8, 254), random.Random(254))
    w = walsh(f)
    alphas = [1, 0x5a, 0xff]
    _, s2 = trimming._side_moments(w, alphas, 8)
    assert _pure(s2, 8).reshape(-1, 2).sum(axis=1).tolist() == [1, 1, 1]
    _assert_columns_match_one_side(f, w, alphas)
    share = trimming._spectrum_share(f.table, 8, alphas[:1], False)
    assert Counter(_decoded(share.elements())) == Counter(
        _table_signatures(f, 1, "linear") + _table_signatures(f, 1, "affine"))
    monkeypatch.setattr(vbf, "_BATCH_CELL_LIMIT", 3 << 12)
    _assert_columns_match_one_side(f, w, alphas)


def test_stacked_kernels_chunked_path(monkeypatch):
    """Blocks of a few rows of a 3-hyperplane stack give the columns of one
    block: rows v of the Walsh table, and rows a of the DDT kernel on the
    impure sides. gold5 + x0*x1*x2 has pure and impure sides in the stack,
    the other two impure sides only. The Walsh tables are taken before the
    limit is lowered: vbf.walsh refuses a table above it."""
    inputs = [random_function(6, 6, random.Random(13)), _field_power(6, 7),
              _gold5_plus_cubic()]
    ws = [walsh(f) for f in inputs]
    alphas = (1, 2, 29)
    purity = [_pure(trimming._side_moments(w, alphas, f.n)[1], f.n).tolist()
              for f, w in zip(inputs, ws)]
    assert purity[:2] == [[False] * 6] * 2 and 0 < sum(purity[2]) < 6
    want = [trimming._general_columns(f, w, alphas) for f, w in zip(inputs, ws)]
    blocks = []

    def recording(row_chunks):
        def chunks(*args):
            for lo, hi in row_chunks(*args):
                blocks.append(hi - lo)
                yield lo, hi
        return chunks

    monkeypatch.setattr(vbf, "_row_chunks", recording(vbf._row_chunks))
    monkeypatch.setattr(trimming, "_row_chunks", recording(trimming._row_chunks))
    monkeypatch.setattr(vbf, "_BATCH_CELL_LIMIT", 3000)
    got = [trimming._general_columns(f, w, alphas) for f, w in zip(inputs, ws)]
    for g, w in zip(got, want):
        for (gv, gc), (wv, wc) in zip(g, w):
            assert np.array_equal(gv, wv) and np.array_equal(gc, wc)
    assert min(blocks) <= 2


def test_general_spectrum_stacks_follow_the_cell_limit(monkeypatch):
    """A 5-bit share of 31 hyperplanes, 2^17 cells per side and both sides
    of each, goes through the kernels in one stack, and in stacks of 3 with
    room for 3; the spectrum is the same."""
    f = _field_power(5, 30)
    stacks = []
    general_keys = trimming._general_keys

    def recording(g, w, alphas):
        stacks.append(len(alphas))
        return general_keys(g, w, alphas)

    monkeypatch.setattr(trimming, "_general_keys", recording)
    want = trim_spectrum(f)
    assert stacks == [31]
    stacks.clear()
    monkeypatch.setattr(vbf, "_BATCH_CELL_LIMIT", 3 << 18)
    assert trim_spectrum(f) == want
    assert stacks == [3] * 10 + [1]


def _reference_signatures(f, alpha, sides):
    """The signatures of the trims on hyperplane alpha, one object per trim,
    from the one-hyperplane kernels for degree > 2 and from the quadratic
    kernel's columns, with the affine twins' degree replaced, otherwise."""
    n = f.n

    def tables(side):
        return lambda rows: trimming._canonical_tables(
            f, [(alpha, side, b + 1) for b in rows.tolist()])

    def values(side):
        return trimming._restricted_values(f, [(alpha, side)])[0]

    def signatures(*columns):
        return [signature_of_key(key) for key in signature_keys(n - 1, *columns)]

    if f.degree > 2:
        return [s for side in sides for s in signatures(
            _degrees_one(values(side), n), _ddt_counts_one(values(side), n),
            _walsh_counts_one(values(side), n), tables(side))]
    ddt, walsh = _quadratic_counts_one(_derivative_table(f, alpha), n)
    flat = ~walsh[1][:, 1:-1].any(axis=1)
    degrees = {side: np.where(flat, _degrees_one(values(side), n), 2) for side in SIDES}
    sigs = signatures(degrees["linear"], ddt, walsh, tables("linear"))
    if "affine" not in sides:
        return sigs
    return sigs + [s if s.degree == 2 else replace(s, degree=int(d))
                   for s, d in zip(sigs, degrees["affine"])]


def _reference_spectrum(f, quadratic_reduced):
    """Counter of one signature object per trim, hyperplane by hyperplane."""
    sides = ("linear",) if quadratic_reduced else SIDES
    counts = Counter()
    for alpha in range(1, 1 << f.n):
        counts.update(_reference_signatures(f, alpha, sides))
    return dict(counts)


KEYED_SPECTRUM_INPUTS = {
    **{name: (lambda name: lambda: _general_input(name))(name) for name in SMALL_GENERAL_INPUTS},
    "gold5": lambda: catalog.gold(5),
    "T6": catalog.t6,
    "G1": lambda: catalog.g7(1),
    "gold7 copy": lambda: random_ea_transform(catalog.gold(7), random.Random(7)),
    "random_quadratic(6, 6) not APN": lambda: random_quadratic(6, 6, random.Random(1)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", KEYED_SPECTRUM_INPUTS)
def test_keyed_spectrum_matches_object_counting(name, workers):
    f = KEYED_SPECTRUM_INPUTS[name]()
    for reduced in (False, True) if f.degree <= 2 else (False,):
        spec = trim_spectrum(f, reduced, workers=workers)
        assert spec.counts == _reference_spectrum(f, reduced)
        assert spec.total == descriptor_count(f.n, reduced)


def test_general_spectrum_stacks_peak_rss_at_10_bits():
    """One share's stacks at n = 10, 4 hyperplanes of x^1022 (not APN: its
    linear sides are impure, its affine ones pure) in stacks of one
    hyperplane with both sides: peak RSS grows by under 48 MB (31 MB
    measured). The per-side kernels this path replaced grew it by 17 MB in
    stacks of one side and by about 110 MB as one stack of all 8 sides."""
    assert _peak_rss_growth_mb("""
        from apnkit import gf2, trimming
        from apnkit.vbf import VBF
        f = VBF.from_univariate(gf2.default_field(10), [(1, 1022)])
        run = lambda: trimming._spectrum_share(f.table, 10, range(1, 5), False)
    """) < 48
