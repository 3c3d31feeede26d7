import random

import numpy as np
import pytest

from apnkit import gf2
from apnkit.gf2 import (
    AffineSolutionSpace, FieldSpec, GF2Matrix, default_field, field_inv,
    field_mul, inner_product, is_irreducible, rank, rref, solve_affine,
    trace,
)


def test_inner_product_examples():
    assert inner_product(0b101, 0b100) == 1
    for x in range(16):
        assert inner_product(x, 0) == 0
    # popcount oracle
    assert inner_product(0b111, 0b110) == bin(0b111 & 0b110).count("1") % 2 == 0


def test_inner_product_bilinear():
    rng = random.Random(1)
    for _ in range(200):
        x, y, z = (rng.getrandbits(12) for _ in range(3))
        assert inner_product(x, y ^ z) == inner_product(x, y) ^ inner_product(x, z)


def test_default_moduli_irreducible():
    for n, mod in gf2.DEFAULT_MODULUS.items():
        assert mod.bit_length() == n + 1
        assert is_irreducible(mod), f"n={n}"


def test_irreducibility_rejects_composites():
    assert not is_irreducible(0b101)        # (X+1)^2
    assert not is_irreducible(0b10101)      # (X^2+X+1)^2
    assert is_irreducible(0b111)
    assert is_irreducible(0b100011011)      # X^8+X^4+X^3+X+1


def test_fieldspec_validation():
    with pytest.raises(ValueError):
        FieldSpec(3, 0b10101)   # degree 4 modulus
    with pytest.raises(ValueError):
        FieldSpec(4, 0b10101)   # reducible
    with pytest.raises(ValueError):
        FieldSpec(17, (1 << 17) | 0b1011)


def test_field_mul_identities():
    spec = default_field(5)
    rng = random.Random(2)
    for _ in range(50):
        a = rng.getrandbits(5)
        assert field_mul(spec, a, 1) == a
        assert field_mul(spec, a, 0) == 0


def test_field_mul_cube_example():
    # g * g^2 = g^3 = g + 1 over X^3 + X + 1
    spec = FieldSpec(3, 0b1011)
    g = spec.generator
    g2 = field_mul(spec, g, g)
    assert field_mul(spec, g, g2) == 0b011
    # cross-check against the exp table built by repeated multiplication
    exp = gf2.exp_table(spec)
    assert exp[3] == 0b011


@pytest.mark.parametrize("n", [2, 3, 4])
def test_field_group_structure_exhaustive(n):
    spec = default_field(n)
    size = 1 << n
    for a in range(size):
        for b in range(size):
            assert field_mul(spec, a, b) == field_mul(spec, b, a)
            for c in range(0, size, 3):
                left = field_mul(spec, field_mul(spec, a, b), c)
                right = field_mul(spec, a, field_mul(spec, b, c))
                assert left == right
    # nonzero elements form a cyclic group generated by g (primitive modulus)
    assert len(gf2.exp_table(spec)) == size - 1


def test_field_inv():
    spec = default_field(6)
    for x in range(1, 64):
        assert field_mul(spec, x, field_inv(spec, x)) == 1
    with pytest.raises(ValueError):
        field_inv(spec, 0)


def test_trace_examples():
    spec3 = FieldSpec(3, 0b1011)
    assert trace(spec3, 0) == 0
    assert trace(spec3, 1) == 1  # 1 + 1 + 1 over F_2


@pytest.mark.parametrize("n", range(2, 9))
def test_trace_balanced_and_frobenius(n):
    spec = default_field(n)
    ones = sum(trace(spec, x) for x in range(1 << n))
    assert ones == 1 << (n - 1)
    for x in range(1 << n):
        assert trace(spec, field_mul(spec, x, x)) == trace(spec, x)


def _span_size(rows):
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return len(span)


def test_rref_trivial():
    ident = GF2Matrix.identity(6)
    ech, rk, piv = rref(ident)
    assert rk == 6 and piv == tuple(range(6)) and ech == ident
    zero = GF2Matrix.zeros(4, 7)
    assert rref(zero)[1] == 0


def test_rref_rank_vs_span_oracle():
    rng = random.Random(3)
    for _ in range(25):
        m = gf2.random_matrix(10, 10, rng)
        _, rk, _ = rref(m)
        assert _span_size(m.rows) == 1 << rk


def test_rref_idempotent():
    rng = random.Random(4)
    for _ in range(20):
        m = gf2.random_matrix(8, 12, rng)
        ech, rk, piv = rref(m)
        ech2, rk2, piv2 = rref(ech)
        assert ech2 == ech and rk2 == rk and piv2 == piv


def test_solve_affine_trivial():
    ident = GF2Matrix.identity(5)
    s = solve_affine(ident, 0b10110)
    assert s.particular == 0b10110 and s.basis == ()
    zero = GF2Matrix.zeros(4, 4)
    assert solve_affine(zero, 0b1).empty


def test_solve_affine_random_consistent_system():
    rng = random.Random(5)
    for _ in range(10):
        m = gf2.random_matrix(12, 20, rng)
        x0 = rng.getrandbits(20)
        v = m.mul_vec(x0)
        s = solve_affine(m, v)
        assert not s.empty
        members = list(s)
        assert len(members) == s.size == 1 << len(s.basis)
        for x in members[:256]:
            assert m.mul_vec(x) == v
        assert x0 in s


def test_solve_affine_complete_vs_exhaustive():
    rng = random.Random(6)
    for _ in range(5):
        m = gf2.random_matrix(6, 10, rng)
        v = m.mul_vec(rng.getrandbits(10))
        s = solve_affine(m, v)
        brute = {x for x in range(1 << 10) if m.mul_vec(x) == v}
        assert brute == set(s)
        for x in range(1 << 10):
            assert (x in s) == (x in brute)


def _solve_affine_by_loop(mat, v):
    """Gauss-Jordan on Python-int rows, one system at a time: the
    reference for the batched solver."""
    aug_col = mat.ncols
    rows = [mat.rows[i] | (((v >> i) & 1) << aug_col) for i in range(mat.nrows)]
    pivots = []
    r = 0
    for col in range(mat.ncols):
        sel = None
        for i in range(r, len(rows)):
            if (rows[i] >> col) & 1:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i]:
            return AffineSolutionSpace(mat.ncols, None, ())
    particular = 0
    for i, p in enumerate(pivots):
        particular |= ((rows[i] >> aug_col) & 1) << p
    pivot_set = set(pivots)
    basis = []
    for free in range(mat.ncols):
        if free in pivot_set:
            continue
        vec = 1 << free
        for i, p in enumerate(pivots):
            vec |= ((rows[i] >> free) & 1) << p
        basis.append(vec)
    return AffineSolutionSpace(mat.ncols, particular, tuple(basis))


def _random_systems(rng, count, nrows, ncols):
    """(matrix, right-hand side) pairs of one shape: random, low-rank,
    zero and (when square) invertible matrices, with consistent and
    random right-hand sides."""
    out = []
    for t in range(count):
        kind = t % 4
        if kind == 0:
            m = gf2.random_matrix(nrows, ncols, rng)
        elif kind == 1:
            base = [rng.getrandbits(ncols) for _ in range(rng.randint(1, 3))]
            rows = []
            for _ in range(nrows):
                row = 0
                for b in base:
                    row ^= b if rng.random() < 0.5 else 0
                rows.append(row)
            m = GF2Matrix(nrows, ncols, rows)
        elif kind == 2:
            m = GF2Matrix.zeros(nrows, ncols)
        elif nrows == ncols:
            m = gf2.random_invertible(ncols, rng)
        else:
            m = gf2.random_matrix(nrows, ncols, rng)
        if rng.random() < 0.5:
            v = m.mul_vec(rng.getrandbits(ncols))
        else:
            v = rng.getrandbits(nrows)
        out.append((m, v))
    return out


def _batch(systems, ncols):
    """The systems as one (systems, rows, words) augmented word array."""
    bits = [[[(row >> j) & 1 for j in range(ncols)] + [(v >> i) & 1]
             for i, row in enumerate(m.rows)] for m, v in systems]
    return gf2.pack_words(np.array(bits, dtype=bool).reshape(
        len(systems), systems[0][0].nrows, ncols + 1))


@pytest.mark.parametrize("ncols", [1, 2, 7, 49, 63, 64, 65, 100, 127, 128, 130])
def test_solve_affine_batch_matches_loop(ncols):
    rng = random.Random(ncols)
    seen_empty = seen_solvable = 0
    for nrows in sorted({0, 1, ncols // 2, ncols, ncols + 3}):
        systems = _random_systems(rng, 12, nrows, ncols)
        got = gf2.solve_affine_batch(_batch(systems, ncols), ncols)
        want = [_solve_affine_by_loop(m, v) for m, v in systems]
        assert got == want, (ncols, nrows)
        assert [solve_affine(m, v) for m, v in systems] == want
        seen_empty += sum(s.empty for s in want)
        seen_solvable += sum(not s.empty for s in want)
    assert seen_empty and seen_solvable


def test_solve_affine_batch_vs_exhaustive():
    rng = random.Random(12)
    for ncols in range(1, 11):
        for nrows in (1, ncols - 1, ncols, ncols + 2):
            systems = _random_systems(rng, 8, max(nrows, 1), ncols)
            spaces = gf2.solve_affine_batch(_batch(systems, ncols), ncols)
            for (m, v), s in zip(systems, spaces):
                brute = [x for x in range(1 << ncols) if m.mul_vec(x) == v]
                assert sorted(s) == brute


def test_solve_affine_batch_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gf2.solve_affine_batch(np.zeros((2, 3, 2), dtype=np.uint64), 10)
    with pytest.raises(ValueError):     # a bit beyond the right-hand side
        gf2.solve_affine_batch(np.full((1, 1, 1), 1 << 11, dtype=np.uint64), 10)
    with pytest.raises(ValueError):
        solve_affine(GF2Matrix.identity(3), 0b1000)


def test_solution_space_empty_contract():
    s = AffineSolutionSpace(4, None, ())
    assert s.empty and s.size == 0 and list(s) == [] and 3 not in s


def test_matrix_ops():
    rng = random.Random(7)
    m = gf2.random_matrix(6, 6, rng)
    # column extraction round trip
    assert GF2Matrix.from_columns(m.columns(), 6) == m
    assert m.transpose().transpose() == m
    # lut agrees with mul_vec
    lut = m.lut()
    for x in range(64):
        assert lut[x] == m.mul_vec(x)
    # matmul against composition of mul_vec
    b = gf2.random_matrix(6, 6, rng)
    prod = m @ b
    for x in range(64):
        assert prod.mul_vec(x) == m.mul_vec(b.mul_vec(x))


def test_random_invertible():
    rng = random.Random(8)
    for n in (3, 5, 8):
        m = gf2.random_invertible(n, rng)
        assert rank(m) == n


def test_trace_gram_matches_trace_pairing():
    spec = default_field(5)
    s = gf2.trace_gram(spec)
    rng = random.Random(9)
    for _ in range(100):
        u, v = rng.getrandbits(5), rng.getrandbits(5)
        assert inner_product(u, s.mul_vec(v)) == trace(spec, field_mul(spec, u, v))


def test_trace_form_word():
    spec = default_field(7)
    t = gf2.trace_form(spec)
    for x in range(128):
        assert inner_product(t, x) == trace(spec, x)
