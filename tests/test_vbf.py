import hashlib
import random

import numpy as np
import pytest

from apnkit import catalog, gf2
from apnkit import vbf as vbf_mod
from apnkit.gf2 import default_field, field_mul, inner_product
from apnkit.ortho import invariant_signature, signatures_of_tables
from apnkit.vbf import (
    VBF, anf_and_degree, apn_by_moments, ddt, ddt_rows, derivative,
    differential_spectrum, differential_uniformity, extended_walsh_spectrum,
    fourth_moment, is_apn, linearity, random_ea_transform, random_function,
    random_quadratic, vbf_from_anf, walsh, walsh_rows,
)


def _sylvester(log_size):
    """The Sylvester-Hadamard matrix of order 2^log_size, written out."""
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(log_size):
        h = np.block([[h, h], [h, -h]])
    return h


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("log_size", range(11))
def test_fwht_matches_the_hadamard_matrix(log_size, dtype):
    size = 1 << log_size
    h = _sylvester(log_size)
    rng = np.random.default_rng(log_size)
    for shape in ((size,), (3, size), (2, 3, size)):
        a = rng.integers(-9, 10, size=shape).astype(dtype)
        want = a.astype(np.int64) @ h
        got = vbf_mod._fwht(a.copy())
        assert got.dtype == dtype and got.shape == shape
        assert (got == want).all()
    # a leading-axis slice of a larger array
    a = rng.integers(-9, 10, size=(5, 2, size)).astype(dtype)
    want = a[2:].astype(np.int64) @ h
    assert (vbf_mod._fwht(a[2:]) == want).all()


def _affine_vbf(n, m, rng):
    mat = gf2.random_matrix(m, n, rng)
    c = rng.getrandbits(m)
    return VBF(n, m, [mat.mul_vec(x) ^ c for x in range(1 << n)])


def test_vbf_validation():
    with pytest.raises(ValueError):
        VBF(3, 3, [0] * 7)
    with pytest.raises(ValueError):
        VBF(2, 2, [0, 1, 2, 4])
    with pytest.raises(ValueError):
        VBF(0, 1, [0])


def test_from_univariate_identity():
    spec = default_field(4)
    assert VBF.from_univariate(spec, [(1, 1)]) == VBF.identity(4)


def test_from_univariate_cube_oracle():
    spec = gf2.FieldSpec(3, 0b1011)
    cube = VBF.from_univariate(spec, [(1, 3)])
    assert cube(2) == 0b011  # g^3 = g + 1
    for x in range(8):
        # square-and-multiply oracle
        assert cube(x) == field_mul(spec, x, field_mul(spec, x, x))


def _from_univariate_by_loop(spec, terms):
    """The per-element reference: one field_mul(field_pow) per point and term."""
    tab = [0] * (1 << spec.n)
    for x in range(1 << spec.n):
        for coeff, e in terms:
            tab[x] ^= field_mul(spec, coeff, gf2.field_pow(spec, x, e))
    return VBF(spec.n, spec.n, tab)


_UNIVARIATE_FIELDS = ([default_field(n) for n in range(1, 11)]
                      + [gf2.FieldSpec(9, 0b1000000011),       # X has order 73
                         gf2.FieldSpec(6, catalog._EP6_MODULUS)])


@pytest.mark.parametrize("spec", _UNIVARIATE_FIELDS,
                         ids=[f"{s.n}-{s.modulus:#x}" for s in _UNIVARIATE_FIELDS])
def test_from_univariate_matches_per_element_loop(spec):
    n, top = spec.n, (1 << spec.n) - 1
    rng = random.Random(spec.modulus)
    terms = [(rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(3)]
    # coefficient 0, exponent 0 (so 0^0 = 1), exponent 2^n - 1 and a
    # repeated exponent
    terms += [(0, rng.randrange(1 << n)), (top, 0), (spec.generator, top),
              (1, terms[0][1]), (top, terms[0][1])]
    for t in [terms, terms[:1], [(1, 0)], [(spec.generator, top)], []]:
        assert VBF.from_univariate(spec, t) == _from_univariate_by_loop(spec, t)


def test_from_univariate_errors():
    spec = default_field(3)
    with pytest.raises(ValueError):
        VBF.from_univariate(spec, [(1, 8)])
    with pytest.raises(ValueError):
        VBF.from_univariate(spec, [(9, 1)])


@pytest.mark.parametrize("name", ["gold3", "gold5", "G1", "T6", "EP6_1_2"])
def test_differential_uniformity_of_apn_fixtures(name):
    assert differential_uniformity(catalog.fixture(name)) == 2


def test_differential_uniformity_of_inverse_on_8_bits():
    assert differential_uniformity(VBF.from_univariate(default_field(8), [(1, 254)])) == 4


@pytest.mark.parametrize("n,m", [(3, 3), (4, 2), (5, 5), (6, 4)])
def test_differential_uniformity_is_the_largest_ddt_entry(n, m):
    rng = random.Random(40 + n + m)
    for f in (random_function(n, m, rng), random_quadratic(n, m, rng)):
        assert differential_uniformity(f) == int(ddt(f)[1:].max())


def test_appendix_table_matches_univariate_form():
    assert catalog.appendix_r() == catalog.appendix_r_univariate()


def test_degree_examples():
    rng = random.Random(0)
    for _ in range(10):
        assert _affine_vbf(5, 5, rng).degree <= 1
    assert catalog.gold(5).degree == 2
    assert catalog.appendix_r().degree == 2


def test_degree_of_top_monomials_at_16_bits():
    """Monomial weights reach 16 at the widest input: a 16-bit word count
    would wrap and weigh monomial 0xffff as 1."""
    for word, deg in ((0xffff, 16), (0x7fff, 15)):
        anf = np.zeros(1 << 16, dtype=np.uint16)
        anf[word] = 1
        assert VBF(16, 1, vbf_mod._mobius(anf)).degree == deg


def test_mobius_involution():
    rng = random.Random(1)
    for n in (3, 5, 8):
        f = random_function(n, n, rng)
        anf, deg = anf_and_degree(f)
        assert anf.to_vbf() == f
        assert 0 <= deg <= n


def test_anf_monomials_consistent():
    # f(x) = x0*x1 on 3 bits, single coordinate
    coeffs = [0] * 8
    coeffs[0b011] = 1
    f = vbf_from_anf(3, 1, coeffs)
    for x in range(8):
        assert f(x) == ((x & 1) & (x >> 1)) & 1
    anf, deg = anf_and_degree(f)
    assert deg == 2 and anf.monomials(0) == [0b011]


def test_walsh_constant_function():
    f = VBF.constant(4, 4, 0)
    w = walsh(f)
    for beta in range(1, 16):
        assert w[beta, 0] == 16
        assert all(w[beta, a] == 0 for a in range(1, 16))


def _walsh_direct(f, beta, alpha):
    return sum((-1) ** (inner_product(alpha, x) ^ inner_product(beta, f(x)))
               for x in range(1 << f.n))


def test_walsh_direct_summation_oracle():
    g3 = catalog.gold(3)
    w = walsh(g3)
    for beta in range(1, 8):
        for alpha in range(8):
            v = w[beta, alpha]
            assert v == _walsh_direct(g3, beta, alpha)
            assert v in (0, 4, -4)


def test_walsh_rows_match_table():
    f = random_function(5, 4, random.Random(2))
    w = walsh(f)
    for beta, row in walsh_rows(f):
        assert np.array_equal(row, w[beta])


def test_first_walsh_row_at_16_bits():
    rng = random.Random(16)
    f = random_function(16, 16, rng)
    beta, row = next(walsh_rows(f))
    xs = np.arange(1 << 16)
    parity = np.array([x.bit_count() & 1 for x in range(1 << 16)])
    assert beta == 1
    for alpha in rng.sample(range(1 << 16), 8):
        assert int(row[alpha]) == int((1 - 2 * (parity[alpha & xs] ^ (f.table & 1))).sum())


def test_parseval_per_component():
    rng = random.Random(3)
    for f in (catalog.gold(5), catalog.t6(), random_function(6, 6, rng)):
        w = walsh(f)
        for beta in range(1, 1 << f.m):
            assert int((w[beta].astype(np.int64) ** 2).sum()) == 1 << (2 * f.n)


def test_linearity_examples():
    rng = random.Random(4)
    mat = gf2.random_invertible(5, rng)
    lin_f = VBF(5, 5, [mat.mul_vec(x) for x in range(32)])
    assert linearity(lin_f) == 32
    assert linearity(catalog.t6()) == 32
    assert linearity(catalog.gold(5)) == 8


def test_ddt_identity():
    f = VBF.identity(4)
    table = ddt(f)
    for a in range(1, 16):
        row = table[a]
        assert row[a] == 16 and row.sum() == 16


def test_ddt_gold4_and_r():
    t4 = ddt(catalog.gold(4))
    assert set(np.unique(t4[1:]).tolist()) == {0, 2}
    r8 = ddt(catalog.appendix_r())
    assert int(r8[1:].max()) == 2


def test_ddt_row_properties_random():
    rng = random.Random(5)
    for n, m in ((6, 6), (5, 3), (8, 8)):
        f = random_function(n, m, rng)
        for a, row in ddt_rows(f):
            assert int(row.sum()) == 1 << n
            assert not (row % 2).any()


def test_differential_spectrum_total():
    f = random_function(5, 5, random.Random(6))
    spec = differential_spectrum(f)
    assert sum(c for _, c in spec) == 31 * 32


def test_is_apn_examples():
    rng = random.Random(7)
    assert not is_apn(_affine_vbf(4, 4, rng))
    assert is_apn(catalog.gold(7))
    assert is_apn(catalog.appendix_r())
    with pytest.raises(ValueError):
        is_apn(random_function(4, 3, rng))


def test_fourth_moment_examples():
    assert fourth_moment(catalog.gold(3)) == 2 ** 13 - 2 ** 10 == 7168
    ident = VBF.identity(3)
    assert fourth_moment(ident) == 7 * 2 ** 12
    assert not apn_by_moments(ident)
    assert apn_by_moments(catalog.gold(3))


def test_moment_criterion_agrees_with_ddt():
    rng = random.Random(8)
    for _ in range(100):
        f = random_quadratic(6, 6, rng)
        assert apn_by_moments(f) == is_apn(f)


def _random_cubic(n, rng):
    """Random function of degree exactly 3 via its packed ANF."""
    while True:
        coeffs = [rng.getrandbits(n) if bin(u).count("1") <= 3 else 0
                  for u in range(1 << n)]
        f = vbf_from_anf(n, n, coeffs)
        if f.degree == 3:
            return f


@pytest.mark.parametrize("deg", [2, 3])
def test_derivative_matches_definition(deg):
    rng = random.Random(16 + deg)
    n = 6
    xs = np.arange(1 << n)
    for _ in range(5):
        f = random_quadratic(n, n, rng) if deg == 2 else _random_cubic(n, rng)
        assert f.degree <= deg
        tab = f.table
        want = np.array([[int(tab[a ^ x]) ^ int(tab[a]) ^ int(tab[x]) ^ int(tab[0])
                          for x in range(1 << n)] for a in range(1 << n)])
        d = derivative(tab, xs[:, None], xs[None, :])
        assert d.shape == want.shape and np.array_equal(d, want)
        a, x = rng.randrange(1 << n), rng.randrange(1 << n)
        assert derivative(tab, a, x) == want[a, x]
        assert np.array_equal(derivative(tab, a, xs), want[a])
        assert np.array_equal(derivative(tab, xs, x), want[:, x])
        cube = xs.reshape(4, 4, 4)
        assert np.array_equal(derivative(tab, cube[..., None], xs[:8]),
                              want[:, :8].reshape(4, 4, 4, 8))
        # B_a(x + y) = B_a(x) + B_a(y) for every a, x, y iff deg F <= 2
        linear = np.array_equal(d[:, xs[:, None] ^ xs], d[:, :, None] ^ d[:, None, :])
        assert linear == (deg == 2)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16, np.uint32])
def test_derivative_index_dtypes(dtype):
    """Signed and unsigned index arrays give the definition, on one table
    and on a stack of tables indexed through the flattened stack."""
    g = catalog.gold(5)
    x = np.arange(32, dtype=dtype)
    tab = g.table.astype(np.int64)
    want = tab[x[:, None] ^ x] ^ tab[x[:, None]] ^ tab[x] ^ tab[0]
    assert np.array_equal(derivative(g.table, x[:, None], x), want)
    stack = np.stack([random_function(5, 5, random.Random(t)).table for t in range(3)]
                     + [g.table])
    rows = (32 * 3 + x).astype(dtype)
    assert np.array_equal(derivative(stack, rows[:, None], x), want)
    for t, tab in enumerate(stack[:3].astype(np.int64)):
        rows = (32 * t + x).astype(dtype)
        want = tab[x[:, None] ^ x] ^ tab[x[:, None]] ^ tab[x] ^ tab[0]
        assert np.array_equal(derivative(stack, rows[:, None], x), want)


def test_derivative_zero():
    g = catalog.gold(4)
    assert set(derivative(g.table, 0, np.arange(16)).tolist()) == {0}


def test_derivative_gold_closed_form():
    # B_a(x) = a x^2 + a^2 x for the cube map
    spec = default_field(5)
    g = catalog.gold(5)
    rng = random.Random(9)
    for _ in range(10):
        a = rng.randrange(1, 32)
        d = derivative(g.table, a, np.arange(32))
        for x in range(32):
            expect = field_mul(spec, a, field_mul(spec, x, x)) ^ \
                field_mul(spec, field_mul(spec, a, a), x)
            assert d[x] == expect
        assert len(set(d.tolist())) == 16  # 2-to-1 with kernel {0, a}


def _derivative_image_sizes(f):
    xs = np.arange(1 << f.n)
    d = derivative(f.table, xs[1:, None], xs)
    return [len(set(row)) for row in d.tolist()]


def test_derivative_image_dim_iff_apn():
    g1 = catalog.g7(1)
    assert _derivative_image_sizes(g1) == [64] * 127
    rng = random.Random(10)
    while True:
        f = random_quadratic(7, 7, rng)
        if not is_apn(f):
            break
    assert any(size < 64 for size in _derivative_image_sizes(f))


def test_extended_walsh_spectrum_zero_function():
    n, m = 5, 3
    f = VBF.constant(n, m, 0)
    spec = dict(extended_walsh_spectrum(f))
    assert spec[1 << n] == (1 << m) - 1
    assert spec[0] == ((1 << n) - 1) * ((1 << m) - 1)


def test_extended_walsh_spectrum_gold5_and_t6():
    spec = dict(extended_walsh_spectrum(catalog.gold(5)))
    assert set(spec) == {0, 8}
    # Parseval fixes the nonzero count: 31 rows * (2^10 / 64) values of 8
    assert spec[8] == 31 * 16
    t6 = dict(extended_walsh_spectrum(catalog.t6()))
    assert set(t6) == {0, 8, 16, 32}
    assert t6[32] == 4


def test_spectra_are_ea_invariant():
    rng = random.Random(11)
    for f in (catalog.gold(5), catalog.t6()):
        base_d = differential_spectrum(f)
        base_w = extended_walsh_spectrum(f)
        for _ in range(5):
            g = random_ea_transform(f, rng)
            assert differential_spectrum(g) == base_d
            assert extended_walsh_spectrum(g) == base_w


def test_benchmark_ea_copies_are_pinned():
    """The benchmark draws its inputs as seeded random_ea_transform copies of
    the fixtures and promises the same inputs on every commit."""
    digest = hashlib.sha256()
    for name in ("G1", "gold7", "T6", "appendixA_R"):
        for seed in range(4):
            rng = random.Random(f"{name}:{seed}")
            digest.update(random_ea_transform(catalog.fixture(name), rng).table.tobytes())
    assert digest.hexdigest() == "bb04255d80c232d077625b6f7b900cf2a015b83f8cd12100c687a0c9c02d3b3d"


def test_quadratic_walsh_values_are_powers_of_two():
    rng = random.Random(12)
    for _ in range(10):
        f = random_quadratic(5, 5, rng)
        mags = {int(v) for v in np.unique(np.abs(walsh(f)[1:]))}
        for v in mags:
            assert v == 0 or (v & (v - 1)) == 0


def test_streaming_paths_match_batched(monkeypatch):
    import apnkit.vbf as vbf_mod

    rng = random.Random(15)
    while True:
        quad = random_quadratic(6, 6, rng)
        if not is_apn(quad):
            break
    inputs = [random_function(6, 6, rng), catalog.gold(5), quad]
    tabs = np.stack([inputs[0].table, quad.table, catalog.t6().table])

    def results():
        return ([(linearity(f), extended_walsh_spectrum(f), fourth_moment(f),
                  differential_spectrum(f), is_apn(f), ddt(f).tolist(),
                  [(a, row.tolist()) for a, row in ddt_rows(f)],
                  [(b, row.tolist()) for b, row in walsh_rows(f)],
                  invariant_signature(f)) for f in inputs],
                signatures_of_tables(tabs, 6), signatures_of_tables(tabs[:0], 6))

    want = results()
    assert [r[4] for r in want[0]] == [False, True, False]
    assert [s.apn for s in want[1]] == [False, False, True] and want[2] == []
    monkeypatch.setattr(vbf_mod, "_BATCH_CELL_LIMIT", 1)
    assert results() == want


def test_large_width_guards():
    f = random_function(13, 13, random.Random(14))
    with pytest.raises(ValueError, match="walsh_rows"):
        walsh(f)
    with pytest.raises(ValueError, match="ddt_rows"):
        ddt(f)
    a, row = next(ddt_rows(f))
    assert a == 0 and int(row[0]) == 1 << 13


def test_degenerate_dimensions_allowed():
    f = VBF(1, 1, [0, 1])
    assert f.degree == 1
    assert walsh(f)[1, 1] == 2 and walsh(f)[1, 0] == 0
    assert dict(differential_spectrum(f)) == {2: 1, 0: 1}
    # the DDT criterion applied literally makes every 1-bit map APN
    assert is_apn(f) and is_apn(VBF(1, 1, [1, 1]))
    g = VBF(3, 1, [0, 1, 1, 0, 1, 0, 0, 1])
    assert linearity(g) == 8 and g.degree == 1


def test_random_quadratic_degrees():
    rng = random.Random(13)
    for _ in range(20):
        assert random_quadratic(5, 5, rng).degree <= 2
        h = random_quadratic(5, 1, rng, homogeneous=True)
        anf, deg = anf_and_degree(h)
        assert all(bin(u).count("1") == 2 for u in anf.monomials(0))
