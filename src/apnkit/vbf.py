"""Vectorial Boolean functions F_2^n -> F_2^m as lookup tables.

Provides the spectral toolbox: algebraic normal form and degree, Walsh
transform and linearity, difference distribution table, APN tests (direct
and via the fourth-moment identity), linearized derivatives, and
EA-transform helpers for randomized invariance testing.

Tables are numpy uint16 arrays indexed by the input word; all transforms
use exact integer arithmetic. ``walsh`` and ``ddt`` return plain numpy
arrays, w[beta, alpha] and counts[a, b].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import gf2
from .gf2 import MAX_WIDTH, FieldSpec, GF2Matrix

# spectra are computed in blocks of rows of at most this many cells
_BATCH_CELL_LIMIT = 1 << 24

Spectrum = tuple[tuple[int, int], ...]


class VBF:
    """A function F_2^n -> F_2^m given by its value table."""

    def __init__(self, n: int, m: int, table):
        if not 1 <= n <= MAX_WIDTH or not 1 <= m <= MAX_WIDTH:
            raise ValueError(f"dimensions must be in [1, {MAX_WIDTH}]")
        tab = np.asarray(table)
        if tab.shape != (1 << n,):
            raise ValueError(f"table must have 2^{n} entries, got {tab.shape}")
        if tab.dtype.kind not in "biu":
            raise ValueError(f"table entries must be integers, got dtype {tab.dtype}")
        # uint16 entries need only the width check, and none at m = 16
        if tab.dtype != np.uint16 and tab.min() < 0:
            raise ValueError("table entry is negative")
        if (m < 16 or tab.dtype != np.uint16) and int(tab.max()) >> m:
            raise ValueError(f"table entry exceeds {m} output bits")
        tab = tab.astype(np.uint16)
        tab.setflags(write=False)
        self.n = n
        self.m = m
        self.table = tab
        self._degree: Optional[int] = None
        self._hash: Optional[int] = None

    @classmethod
    def identity(cls, n: int) -> "VBF":
        return cls(n, n, np.arange(1 << n, dtype=np.uint16))

    @classmethod
    def constant(cls, n: int, m: int, value: int = 0) -> "VBF":
        return cls(n, m, np.full(1 << n, value, dtype=np.uint16))

    @classmethod
    def from_univariate(cls, spec: FieldSpec,
                        terms: Sequence[tuple[int, int]]) -> "VBF":
        """Table of x -> sum c_i * x^(e_i) over F_{2^n}, a term at a time on
        all points: c * x^e = p^((log c + e * log x) mod (2^n - 1)) for a
        primitive p and c, x != 0, and 0^0 = 1."""
        n = spec.n
        size = 1 << n
        for coeff, exp in terms:
            if not 0 <= exp < size:
                raise ValueError(f"exponent {exp} outside [0, {size - 1}]")
            if not 0 <= coeff < size:
                raise ValueError(f"coefficient {coeff:#x} is not an {n}-bit word")
        powers = gf2._primitive_powers(spec)
        log = np.zeros(size, dtype=np.int64)
        log[powers] = np.arange(size - 1)
        tab = np.zeros(size, dtype=np.uint16)
        for coeff, exp in terms:
            if coeff:
                tab[1:] ^= powers[(log[coeff] + exp * log[1:]) % (size - 1)]
                tab[0] ^= coeff if exp == 0 else 0
        return cls(n, n, tab)

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def __len__(self) -> int:
        return 1 << self.n

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, VBF) and self.n == other.n
                and self.m == other.m
                and np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.m, self.table.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"VBF(n={self.n}, m={self.m}, table[:4]={self.table[:4].tolist()}...)"

    @property
    def degree(self) -> int:
        if self._degree is None:
            self._degree = int(_degree_of_tables(self.table[None, :], self.n)[0])
        return self._degree


# ---------------------------------------------------------------------------
# ANF / degree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ANF:
    """Packed algebraic normal form: word ``coeffs[u]`` holds, in bit i, the
    coefficient of monomial ``u`` in output coordinate i."""

    n: int
    m: int
    coeffs: tuple[int, ...]

    def monomials(self, coord: int) -> list[int]:
        return [u for u, c in enumerate(self.coeffs) if (c >> coord) & 1]

    def to_vbf(self) -> VBF:
        arr = np.array(self.coeffs, dtype=np.uint16)
        return VBF(self.n, self.m, _mobius(arr))


def _mobius(arr: np.ndarray) -> np.ndarray:
    """In-place XOR butterflies (self-inverse Moebius transform)."""
    out = arr.astype(np.uint16).copy()
    h = 1
    size = out.shape[-1]
    while h < size:
        view = out.reshape(out.shape[:-1] + (-1, 2, h))
        view[..., 1, :] ^= view[..., 0, :]
        h *= 2
    return out


def _degree_of_tables(tabs: np.ndarray, n: int) -> np.ndarray:
    anf = _mobius(tabs)
    weights = np.bitwise_count(np.arange(1 << n)).astype(np.int16)
    return np.where(anf != 0, weights[None, :], -1).max(axis=1).clip(min=0)


def anf_and_degree(f: VBF) -> tuple[ANF, int]:
    return ANF(f.n, f.m, tuple(_mobius(f.table).tolist())), f.degree


def vbf_from_anf(n: int, m: int, coeffs: Sequence[int]) -> VBF:
    return ANF(n, m, tuple(coeffs)).to_vbf()


# ---------------------------------------------------------------------------
# Walsh transform
# ---------------------------------------------------------------------------

def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    Every stage maps x to y with y[i] = x[2i] + x[2i + 1] and y[i + h] =
    x[2i] - x[2i + 1], h = size / 2: the butterfly on the lowest index bit,
    then a rotation that makes the next bit the lowest. After log2(size)
    stages every bit has had its butterfly and is back at its own position.
    The stages alternate between a contiguous ``a`` and one more buffer, so
    ``a`` is overwritten; use the returned array."""
    src = np.ascontiguousarray(a)
    dst = np.empty_like(src)
    h = src.shape[-1] // 2
    for _ in range(h.bit_length()):
        pairs = src.reshape(src.shape[:-1] + (h, 2))
        np.add(pairs[..., 0], pairs[..., 1], out=dst[..., :h])
        np.subtract(pairs[..., 0], pairs[..., 1], out=dst[..., h:])
        src, dst = dst, src
    return src


def _row_chunks(start: int, stop: int, cells_per_row: int) -> Iterator[tuple[int, int]]:
    """Row ranges covering start .. stop - 1 that keep a temporary of
    cells_per_row cells per row under _BATCH_CELL_LIMIT."""
    step = max(1, _BATCH_CELL_LIMIT // cells_per_row)
    for lo in range(start, stop, step):
        yield lo, min(lo + step, stop)


def _stacks(count: int, ddt_cells: int) -> Iterator[tuple[int, int]]:
    """Row ranges over ``count`` functions of ``ddt_cells`` DDT cells each,
    stacks of at most _BATCH_CELL_LIMIT / 2^8 DDT cells: larger stacks ran
    no faster and only grew the temporaries."""
    return _row_chunks(0, count, ddt_cells << 8)


def _row_hists(rows: np.ndarray, width: int) -> np.ndarray:
    """hists[i, v] = #{j : rows[i, j] = v} for a 2-D array of values in
    [0, width)."""
    keys = rows + np.arange(0, rows.shape[0] * width, width)[:, None]
    hists = np.bincount(keys.ravel(), minlength=rows.shape[0] * width)
    return hists.reshape(rows.shape[0], width)


def _spectrum(counts: np.ndarray, values: Optional[np.ndarray] = None) -> Spectrum:
    """The pairs (values[j], counts[j]) with counts[j] != 0; values[j] = j
    unless given."""
    xs = range(counts.size) if values is None else values.tolist()
    return tuple((x, c) for x, c in zip(xs, counts.tolist()) if c)


def _walsh_blocks(tabs: np.ndarray, m: int, start: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """Signed Walsh rows beta = start .. 2^m - 1 of every table in ``tabs``
    (shape (B, 2^n)), as (first beta, int32 block of shape (B, rows, 2^n))
    with at most _BATCH_CELL_LIMIT cells per block."""
    B, size = tabs.shape
    for lo, hi in _row_chunks(start, 1 << m, B * size):
        betas = np.arange(lo, hi, dtype=np.uint16)
        w = (np.bitwise_count(betas[:, None] & tabs[:, None, :]) & 1).astype(np.int32)
        w *= -2
        w += 1
        yield lo, _fwht(w)


def _batch_walsh_hists(tabs: np.ndarray, m: int) -> np.ndarray:
    """Histogram of |Walsh| values over beta = 1 .. 2^m - 1, one row of
    2^n + 1 counts per table in ``tabs`` (shape (B, 2^n))."""
    B, size = tabs.shape
    return sum(_row_hists(np.abs(w, out=w).reshape(B, -1), size + 1)
               for _, w in _walsh_blocks(tabs, m))


def walsh_rows(f: VBF) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (beta, signed Walsh row) for every nonzero beta, computed in
    blocks of at most _BATCH_CELL_LIMIT cells; use when the full table
    would not fit in memory."""
    for lo, w in _walsh_blocks(f.table[None, :], f.m):
        yield from enumerate(w[0], lo)


def walsh(f: VBF) -> np.ndarray:
    """Signed Walsh coefficients w[beta, alpha], int32, rows indexed by the
    output mask beta in [0, 2^m); the beta = 0 row is the trivial one and
    is excluded from linearity and spectra."""
    if (1 << (f.n + f.m)) > _BATCH_CELL_LIMIT:
        raise ValueError(f"Walsh table too large: 2^{f.n + f.m} cells, above the 2^"
                         f"{_BATCH_CELL_LIMIT.bit_length() - 1}-cell limit; walsh_rows yields rows")
    return next(_walsh_blocks(f.table[None, :], f.m, 0))[1][0]


def linearity(f: VBF) -> int:
    return max(int(np.abs(w).max()) for _, w in _walsh_blocks(f.table[None, :], f.m))


def extended_walsh_spectrum(f: VBF) -> Spectrum:
    """Multiset of absolute Walsh values over all (alpha, beta != 0)."""
    return _spectrum(_batch_walsh_hists(f.table[None, :], f.m)[0])


def fourth_moment(f: VBF) -> int:
    """Sum of fourth powers of all Walsh coefficients with beta != 0."""
    if f.n != f.m:
        raise ValueError("fourth moment test requires n = m")
    return sum(int((w.astype(np.int64) ** 4).sum())
               for _, w in _walsh_blocks(f.table[None, :], f.m))


def apn_by_moments(f: VBF) -> bool:
    n = f.n
    return fourth_moment(f) == (1 << (4 * n + 1)) - (1 << (3 * n + 1))


# ---------------------------------------------------------------------------
# DDT / differential spectrum / APN
# ---------------------------------------------------------------------------

def _ddt_blocks(tabs: np.ndarray, m: int, start: int = 1,
                row_cells: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """DDT rows a = start .. 2^n - 1 of every table in ``tabs`` (shape
    (B, 2^n), values below 2^m), as (first a, int64 block of shape
    (B, rows, 2^m)). A block's differences and counts, plus ``row_cells``
    cells per row that the caller derives from it, stay under
    _BATCH_CELL_LIMIT."""
    B, size = tabs.shape
    xs = np.arange(size, dtype=np.uint32)
    for lo, hi in _row_chunks(start, size, B * (size + (1 << m) + row_cells)):
        d = tabs[:, np.arange(lo, hi, dtype=np.uint32)[:, None] ^ xs]
        d ^= tabs[:, None, :]
        yield lo, _row_hists(d.reshape(-1, size), 1 << m).reshape(B, hi - lo, 1 << m)


def ddt_rows(f: VBF) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (a, counts row) for a = 0 .. 2^n - 1, computed in blocks of at
    most _BATCH_CELL_LIMIT cells, without storing the table."""
    for lo, block in _ddt_blocks(f.table[None, :], f.m, 0):
        yield from enumerate(block[0], lo)


def ddt(f: VBF) -> np.ndarray:
    """Difference distribution counts[a, b] = #{x : F(x) + F(x+a) = b},
    int64."""
    if f.n > 12:
        raise ValueError("dense DDT capped at n = 12; iterate ddt_rows instead")
    blocks = [block[0] for _, block in _ddt_blocks(f.table[None, :], f.m, 0)]
    return np.concatenate(blocks)


def _diff_counts_batch(tabs: np.ndarray, m: int) -> np.ndarray:
    """Per-table histogram of DDT entries over rows a != 0.

    ``tabs`` has shape (B, 2^n); the result has shape (B, 2^n + 1) with
    entry [b, v] counting DDT cells of table b equal to v.
    """
    B, size = tabs.shape
    return sum(_row_hists(block.reshape(B, -1), size + 1)
               for _, block in _ddt_blocks(tabs, m))


def differential_spectrum(f: VBF) -> Spectrum:
    """Multiset of DDT entry values over all rows with a != 0."""
    return _spectrum(_diff_counts_batch(f.table[None, :], f.m)[0])


def differential_uniformity(f: VBF) -> int:
    spec = differential_spectrum(f)
    return max(v for v, _ in spec)


def is_apn(f: VBF) -> bool:
    if f.n != f.m:
        raise ValueError("APN is defined for n = m only")
    return not any((block > 2).any() for _, block in _ddt_blocks(f.table[None, :], f.m))


# ---------------------------------------------------------------------------
# linearized derivatives
# ---------------------------------------------------------------------------

def derivative(tab: np.ndarray, a, x) -> np.ndarray:
    """B_a(x) = F(a + x) + F(a) + F(x) + F(0) for the value table ``tab`` of
    F, broadcast over the index arrays ``a`` and ``x``. B_a is linear in x
    for every a iff deg F <= 2. For a stack of tables (shape (B, 2^n)),
    ``a`` indexes the flattened stack: 2^n * t + a is point a of table t."""
    flat = tab.reshape(-1)
    base = a ^ (a & (tab.shape[-1] - 1))        # in a's dtype, signed or not
    return flat[a ^ x] ^ flat[a] ^ flat[base | x] ^ flat[base]


# ---------------------------------------------------------------------------
# random functions and EA transforms
# ---------------------------------------------------------------------------

def random_function(n: int, m: int, rng) -> VBF:
    return VBF(n, m, [rng.getrandbits(m) for _ in range(1 << n)])


def random_quadratic(n: int, m: int, rng, homogeneous: bool = False) -> VBF:
    """Random function of degree <= 2 via its packed ANF."""
    coeffs = [0] * (1 << n)
    for u in range(1 << n):
        w = u.bit_count()
        if w == 2 or (not homogeneous and w <= 1):
            coeffs[u] = rng.getrandbits(m)
    return vbf_from_anf(n, m, coeffs)


def affine_transform(f: VBF, out_mat: GF2Matrix, out_const: int,
                     in_mat: GF2Matrix, in_const: int,
                     add_mat: Optional[GF2Matrix] = None,
                     add_const: int = 0) -> VBF:
    """The function x -> B(F(A x + a)) + b + C x + c."""
    if in_mat.nrows != f.n or in_mat.ncols != f.n:
        raise ValueError("input matrix must be n x n")
    if out_mat.nrows != f.m or out_mat.ncols != f.m:
        raise ValueError("output matrix must be m x m")
    if add_mat is not None and (add_mat.nrows != f.m or add_mat.ncols != f.n):
        raise ValueError("additive matrix must be m x n")
    a_lut = np.array(in_mat.lut(), dtype=np.uint32)
    b_lut = np.array(out_mat.lut(), dtype=np.uint16)
    tab = b_lut[f.table[a_lut ^ np.uint32(in_const)]] ^ np.uint16(out_const)
    if add_mat is not None:
        c_lut = np.array(add_mat.lut(), dtype=np.uint16)
        tab = tab ^ c_lut
    tab = tab ^ np.uint16(add_const)
    return VBF(f.n, f.m, tab)


def random_ea_transform(f: VBF, rng) -> VBF:
    """A random EA-equivalent copy B o F o (A + a) + b + C."""
    A = gf2.random_invertible(f.n, rng)
    B = gf2.random_invertible(f.m, rng)
    a = rng.getrandbits(f.n)
    b = rng.getrandbits(f.m)
    C = gf2.random_matrix(f.m, f.n, rng)
    c = rng.getrandbits(f.m)
    return affine_transform(f, B, b, A, a, C, c)
