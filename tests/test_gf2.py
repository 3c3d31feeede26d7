import dataclasses
import random

import numpy as np
import pytest

from apnkit import catalog, gf2
from apnkit.gf2 import (
    AffineSolutionSpace, FieldSpec, GF2Matrix, default_field, field_inv,
    field_mul, inner_product, is_irreducible, rank, rref, solve_affine,
    trace,
)
from apnkit.vbf import VBF


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
    for not_a_polynomial in (-11, 0, 1):
        assert not is_irreducible(not_a_polynomial)


def test_irreducible_counts_match_gauss_formula():
    # Gauss: (1/d) sum_{k | d} mu(k) 2^(d/k) irreducibles of degree d
    # (OEIS A001037); an int below 2^13 has degree at most 12
    counts = [0] * 13
    for p in range(1 << 13):
        if is_irreducible(p):
            counts[p.bit_length() - 1] += 1
    assert counts == [0, 2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]
    # composites whose smallest factor has the largest degree trial
    # division tries
    for a, b in [(0x11d, 0x11b), (0x83, 0x11d)]:
        assert is_irreducible(a) and is_irreducible(b)
        assert not is_irreducible(gf2.poly_mul(a, b))
    assert gf2.poly_mul(0x11d, 0x11b) == 0x1071f
    assert gf2.poly_mul(0x83, 0x11d) == 0x8da7


def test_fieldspec_validation():
    with pytest.raises(ValueError):
        FieldSpec(3, 0b10101)   # degree 4 modulus
    with pytest.raises(ValueError):
        FieldSpec(4, 0b10101)   # reducible
    with pytest.raises(ValueError):
        FieldSpec(17, (1 << 17) | 0b1011)
    # a negative modulus fails the degree check
    with pytest.raises(ValueError, match="modulus -0xb does not have degree 3"):
        FieldSpec(3, -11)
    # X is irreducible, but X = 0 modulo X has no powers to generate F_2*
    with pytest.raises(ValueError, match="generator X zero"):
        FieldSpec(1, 0b10)


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


@pytest.mark.parametrize("ncols", [0, 1, 5, 7, 64, 65, 130])
def test_rref_matches_loop(ncols):
    rng = random.Random(100 + ncols)
    for nrows in sorted({0, 1, 3, ncols, ncols + 2}):
        for m, _ in _random_systems(rng, 8, nrows, ncols):
            rows, rk, piv = _rref_by_loop(m.rows, ncols)
            assert rref(m) == (GF2Matrix(nrows, ncols, rows), rk, tuple(piv))
            assert rank(m) == rk


def _span_by_loop(words):
    """XOR of words[i] over the set bits i of t, for every t, as ints."""
    out = []
    for t in range(1 << len(words)):
        acc = 0
        for i, w in enumerate(words):
            if t >> i & 1:
                acc ^= int(w)
        out.append(acc)
    return out


def test_span_matches_brute_force():
    rng = random.Random(13)
    assert gf2.span(np.zeros(0, dtype=np.uint16)).tolist() == [0]
    words = np.array([[rng.getrandbits(16) for _ in range(k)] for k in (5, 5, 5)],
                     dtype=np.uint16)
    got = gf2.span(words)
    assert got.dtype == np.uint16 and got.shape == (3, 32)
    for row, w in zip(got, words):
        assert row.tolist() == _span_by_loop(w)
    wide = [rng.getrandbits(150) for _ in range(6)]
    got = gf2.span(np.array(wide, dtype=object)).tolist()
    assert got == _span_by_loop(wide)
    assert max(got).bit_length() > 64


def _kept_by_listing_spans(base, candidates):
    """The candidates outside the span of base and of the candidates kept
    before them, by listing that span."""
    spanned, kept = {0}, []
    for b in base:
        spanned |= {s ^ b for s in spanned}
    for c in candidates:
        if c not in spanned:
            kept.append(c)
            spanned |= {s ^ c for s in spanned}
    return kept


@pytest.mark.parametrize("width", [1, 6, 64, 65, 150])
def test_extend_basis_matches_span_membership(width):
    rng = random.Random(200 + width)
    for nbase in range(5):
        for _ in range(10):
            base = [rng.getrandbits(width) for _ in range(nbase)]
            base += base[:1]                # a dependent base word
            fresh = [rng.getrandbits(width) for _ in range(rng.randrange(6))]
            # dependent candidates: sums with base words, repeats and 0
            cands = fresh + [b ^ c for b, c in zip(base, fresh)] + fresh[:2] + [0]
            rng.shuffle(cands)
            assert gf2.extend_basis(base, cands) == _kept_by_listing_spans(base, cands)
    assert gf2.extend_basis([], []) == []
    assert gf2.extend_basis([1 << 149], [1 << 149, 3 << 148, 1 << 148]) == [3 << 148]


def _transpose_by_bits(words, width):
    return [sum(((w >> i) & 1) << j for j, w in enumerate(words)) for i in range(width)]


@pytest.mark.parametrize("count,width", [(0, 0), (3, 0), (0, 5), (7, 7), (3, 9),
                                         (9, 3), (5, 70), (70, 5)])
def test_transpose_matches_bit_definition(count, width):
    rng = random.Random(300 + 100 * count + width)
    words = [rng.getrandbits(width + 3) for _ in range(count)]    # 3 bits are cut
    cols = gf2._transpose(words, width)
    assert cols == _transpose_by_bits(words, width)
    if count:
        assert gf2._transpose(cols, count) == [w % (1 << width) for w in words]


def test_default_field_of_degree_1():
    spec = default_field(1)
    assert spec.generator == 1 and gf2.exp_table(spec) == (1,)
    assert catalog.gold(1) == VBF.identity(1)


@pytest.mark.parametrize("n", range(1, 17))
def test_primitive_powers_cover_the_multiplicative_group(n):
    powers = gf2._primitive_powers(default_field(n)).tolist()
    assert powers[0] == 1 and 0 not in powers
    assert len(set(powers)) == len(powers) == (1 << n) - 1


def test_primitive_powers_when_x_is_not_primitive():
    spec = FieldSpec(9, 0b1000000011)      # X has order 73
    powers = gf2._primitive_powers(spec).tolist()
    assert len(gf2.exp_table(spec)) == 73
    assert powers[0] == 1 and sorted(powers) == list(range(1, 512))


def test_default_field_rejects_widths_outside_range():
    for n in (0, 17):
        with pytest.raises(ValueError, match=r"outside \[1, 16\]"):
            default_field(n)
    with pytest.raises(ValueError, match=r"outside \[1, 16\]"):
        catalog.gold(17)


def _points(space):
    """The points of a solution space: its particular point offset by the
    span of its kernel basis, none for the empty space."""
    if space.empty:
        return []
    combos = gf2.span(np.array(space.basis, dtype=object)).tolist()
    return [space.particular ^ c for c in combos]


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
        members = _points(s)
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
        assert brute == set(_points(s))
        for x in range(1 << 10):
            assert (x in s) == (x in brute)


def _rref_by_loop(rows, ncols):
    """Gauss-Jordan on Python-int rows over columns 0 .. ncols - 1, with row
    swaps, one matrix at a time: (reduced rows, rank, pivot columns). The
    reference for gf2._gauss_jordan, through rref and solve_affine_batch."""
    rows = list(rows)
    pivots = []
    r = 0
    for col in range(ncols):
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
    return rows, r, pivots


def _solve_affine_by_loop(mat, v):
    """One system at a time on the reduced rows of _rref_by_loop: the
    reference for the batched solver."""
    aug_col = mat.ncols
    rows, r, pivots = _rref_by_loop(
        [mat.rows[i] | (((v >> i) & 1) << aug_col) for i in range(mat.nrows)], mat.ncols)
    for i in range(r, len(rows)):
        if rows[i]:
            return AffineSolutionSpace(None, ())
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
    return AffineSolutionSpace(particular, tuple(basis))


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
                assert sorted(_points(s)) == brute


def test_solve_affine_batch_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gf2.solve_affine_batch(np.zeros((2, 3, 2), dtype=np.uint64), 10)
    with pytest.raises(ValueError):     # a bit beyond the right-hand side
        gf2.solve_affine_batch(np.full((1, 1, 1), 1 << 11, dtype=np.uint64), 10)
    with pytest.raises(ValueError):
        solve_affine(GF2Matrix.identity(3), 0b1000)


def test_solution_space_empty_contract():
    s = AffineSolutionSpace(None, ())
    assert s.empty and s.size == 0 and _points(s) == [] and 3 not in s


def test_matrix_ops():
    rng = random.Random(7)
    m = gf2.random_matrix(6, 6, rng)
    # column extraction round trip
    assert GF2Matrix.from_columns(m.columns(), 6) == m
    assert m.transpose().transpose() == m
    # lut agrees with mul_vec, also on columns wider than uint64 words
    lut = m.lut()
    for x in range(64):
        assert lut[x] == m.mul_vec(x)
    tall = gf2.random_matrix(70, 3, random.Random(70))
    assert tall.lut() == tuple(tall.mul_vec(x) for x in range(8))
    assert max(tall.lut()).bit_length() > 64
    # matmul against composition of mul_vec
    b = gf2.random_matrix(6, 6, rng)
    prod = m @ b
    for x in range(64):
        assert prod.mul_vec(x) == m.mul_vec(b.mul_vec(x))


def test_matrix_is_a_frozen_value():
    """Rows given as a list, a tuple or a generator make equal matrices
    with equal hashes, and no field can be assigned."""
    rows = [5, 3, 6]
    made = [GF2Matrix(3, 3, rows), GF2Matrix(3, 3, tuple(rows)),
            GF2Matrix(3, 3, (r for r in rows))]
    assert all(m == made[0] and hash(m) == hash(made[0]) for m in made)
    assert all(m.rows == (5, 3, 6) for m in made)
    assert made[0] != GF2Matrix(3, 3, [5, 3, 7])
    for field in ("nrows", "ncols", "rows"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made[0], field, 0)


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
