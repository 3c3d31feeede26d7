"""GF(2) linear algebra and binary finite-field arithmetic on machine words.

Bit vectors are plain Python ints: bit i holds coordinate x_i, so XOR is
vector addition and ``(x & y).bit_count() & 1`` is the canonical inner
product. Callers keep track of widths; routines that need one take it
explicitly or read it from a context object (FieldSpec, GF2Matrix).
Batches of linear systems are numpy arrays of uint64 words instead
(``pack_words``). Each job has one routine: ``span`` lists every XOR
combination of k words, ``_gauss_jordan`` reduces a batch of word arrays
(``rref`` and ``solve_affine_batch`` both call it), ``extend_basis`` keeps
the words that enlarge a span (``rank``, membership tests, complements)
and ``_transpose`` turns rows of bits into columns (``GF2Matrix``).
Field elements are n-bit words reduced modulo a FieldSpec's modulus, and
X is always the generator: ``exp_table`` and ``log_table`` hold its
powers, ``_primitive_powers`` those of a primitive element, from which
univariate tables are read. Widths are capped at 16 so every table of
2**n entries stays in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

MAX_WIDTH = 16
_WORD = (1 << 64) - 1


def inner_product(x: int, y: int) -> int:
    """Parity of the coordinatewise AND of two bit vectors."""
    return (x & y).bit_count() & 1


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(2), coefficients packed in ints
# ---------------------------------------------------------------------------

def poly_mul(a: int, b: int) -> int:
    """Carryless product of two GF(2) polynomials."""
    res = 0
    while b:
        lsb = b & -b
        res ^= a << (lsb.bit_length() - 1)
        b ^= lsb
    return res


def poly_mod(a: int, m: int) -> int:
    """Remainder of ``a`` modulo ``m`` over GF(2); m must be nonzero."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def is_irreducible(modulus: int) -> bool:
    """Whether a GF(2) polynomial given as an int is irreducible, by trial
    division by every polynomial of degree 1 .. n/2 (at most 510 divisions
    at n = 16). Ints below 2, negative ones included, are not."""
    n = modulus.bit_length() - 1
    return modulus > 1 and all(poly_mod(modulus, d)
                               for d in range(2, 1 << (n // 2 + 1)))


# ---------------------------------------------------------------------------
# binary fields F_{2^n}
# ---------------------------------------------------------------------------

# Fixed primitive polynomials, bit i = coefficient of X^i.
DEFAULT_MODULUS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


@dataclass(frozen=True)
class FieldSpec:
    """The field F_{2^n} = F_2[X]/(modulus), elements packed as n-bit words.

    The generator is always the class of X, the word X mod modulus (2 for
    n > 1, 1 for n = 1); ``exp_table`` lists its powers and the g^k
    coefficients of univariate representations refer to them, whether or
    not X is primitive.
    """

    n: int
    modulus: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_WIDTH:
            raise ValueError(f"field degree {self.n} outside [1, {MAX_WIDTH}]")
        if not 1 << self.n <= self.modulus < 2 << self.n:
            raise ValueError(
                f"modulus {self.modulus:#x} does not have degree {self.n}")
        if not is_irreducible(self.modulus):
            raise ValueError(f"modulus {self.modulus:#x} is reducible")
        if not self.modulus & 1:
            raise ValueError(f"modulus {self.modulus:#x} makes the generator X zero")

    @property
    def generator(self) -> int:
        return poly_mod(2, self.modulus)


@lru_cache(maxsize=None)
def default_field(n: int) -> FieldSpec:
    if n not in DEFAULT_MODULUS:
        raise ValueError(f"field degree {n} outside [1, {MAX_WIDTH}]")
    return FieldSpec(n, DEFAULT_MODULUS[n])


def field_mul(spec: FieldSpec, a: int, b: int) -> int:
    """Product in F_{2^n}, reduced modulo spec.modulus."""
    size = 1 << spec.n
    if not (0 <= a < size and 0 <= b < size):
        raise ValueError(f"operands must be {spec.n}-bit words")
    return poly_mod(poly_mul(a, b), spec.modulus)


def field_pow(spec: FieldSpec, x: int, e: int) -> int:
    """x**e in F_{2^n} for e >= 0, with x**0 = 1 for every x."""
    if e < 0:
        raise ValueError("negative exponent; use field_inv")
    acc, base = 1, x
    while e:
        if e & 1:
            acc = field_mul(spec, acc, base)
        base = field_mul(spec, base, base)
        e >>= 1
    return acc


def field_inv(spec: FieldSpec, x: int) -> int:
    if x == 0:
        raise ValueError("zero has no inverse")
    return field_pow(spec, x, (1 << spec.n) - 2)


def trace(spec: FieldSpec, x: int) -> int:
    """Absolute trace x + x^2 + ... + x^(2^(n-1)), as a bit."""
    acc, t = 0, x
    for _ in range(spec.n):
        acc ^= t
        t = field_mul(spec, t, t)
    if acc not in (0, 1):
        raise AssertionError("trace left the prime subfield")
    return acc


def _powers(spec: FieldSpec, x: int) -> tuple[int, ...]:
    """Powers x^0, x^1, ... of a nonzero x up to (not including) its order."""
    out = [1]
    while (t := field_mul(spec, out[-1], x)) != 1:
        out.append(t)
    return tuple(out)


@lru_cache(maxsize=64)
def exp_table(spec: FieldSpec) -> tuple[int, ...]:
    """Powers g^0, g^1, ... of the generator up to (not including) its order."""
    return _powers(spec, spec.generator)


@lru_cache(maxsize=64)
def log_table(spec: FieldSpec) -> dict[int, int]:
    return {v: k for k, v in enumerate(exp_table(spec))}


@lru_cache(maxsize=64)
def _primitive_powers(spec: FieldSpec) -> np.ndarray:
    """Powers p^0 .. p^(2^n - 2) of a primitive element p, read-only: the
    generator when it is primitive, else the smallest word that is."""
    powers, p = exp_table(spec), 1
    while len(powers) < (1 << spec.n) - 1:
        p += 1
        powers = _powers(spec, p)
    out = np.array(powers, dtype=np.uint16)
    out.flags.writeable = False
    return out


def trace_form(spec: FieldSpec) -> int:
    """The word t with <t, x> = Tr(x) for all x (bit j = Tr(X^j))."""
    return sum(trace(spec, 1 << j) << j for j in range(spec.n))


@lru_cache(maxsize=64)
def trace_gram(spec: FieldSpec) -> "GF2Matrix":
    """Gram matrix S of the trace pairing: S[i][j] = Tr(X^i X^j).

    For field elements u, v it holds Tr(u*v) = <u, S v>.
    """
    rows = []
    for i in range(spec.n):
        row = 0
        for j in range(spec.n):
            row |= trace(spec, field_pow(spec, 2, i + j)) << j
        rows.append(row)
    return GF2Matrix(spec.n, spec.n, tuple(rows))


# ---------------------------------------------------------------------------
# matrices over GF(2), one word per row (bit j = column j)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GF2Matrix:
    """A dense GF(2) matrix with word-packed rows."""

    nrows: int
    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.rows, tuple):
            object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        mask = (1 << self.ncols) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("row exceeds declared width")

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "GF2Matrix":
        return cls(nrows, ncols, (0,) * nrows)

    @classmethod
    def from_columns(cls, cols: Sequence[int], nrows: int) -> "GF2Matrix":
        return cls(nrows, len(cols), _transpose(cols, nrows))

    def columns(self) -> list[int]:
        return _transpose(self.rows, self.ncols)

    def mul_vec(self, x: int) -> int:
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r & x).bit_count() & 1) << i
        return out

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix(self.ncols, self.nrows, self.columns())

    def __add__(self, other: "GF2Matrix") -> "GF2Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return GF2Matrix(self.nrows, self.ncols,
                         tuple(a ^ b for a, b in zip(self.rows, other.rows)))

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = [self.mul_vec(c) for c in other.columns()]
        return GF2Matrix.from_columns(cols, self.nrows)

    def lut(self) -> tuple[int, ...]:
        """Images of all 2**ncols inputs: the span of the columns."""
        return tuple(span(np.array(self.columns(), dtype=object)).tolist())


def rref(mat: GF2Matrix) -> tuple[GF2Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form; pivots take the lowest-index free column."""
    if not mat.nrows:
        return mat, 0, ()
    aug = _word_system(mat.rows, mat.ncols)
    pivot_row = _gauss_jordan(aug, mat.ncols)[0][0]     # of the one system
    pivots = np.flatnonzero(pivot_row >= 0)
    rows = [int.from_bytes(aug[0, i].astype("<u8").tobytes(), "little")
            for i in pivot_row[pivots]]
    rows += [0] * (mat.nrows - len(rows))
    return GF2Matrix(mat.nrows, mat.ncols, rows), len(pivots), tuple(pivots.tolist())


def rank(mat: GF2Matrix) -> int:
    return len(extend_basis((), mat.rows))


def extend_basis(base: Sequence[int], candidates: Iterable[int]) -> list[int]:
    """The candidates that lie outside the span of ``base`` and of the
    candidates kept before them, in order. Words are ints of any width."""
    pivots: dict[int, int] = {}     # an echelon: rows keyed by lowest set bit
    kept = []
    for k, v in enumerate((*base, *candidates)):
        w = v
        while w & -w in pivots:     # 0 is no key, so this stops at w = 0
            w ^= pivots[w & -w]
        if w:
            pivots[w & -w] = w
            if k >= len(base):
                kept.append(v)
    return kept


def _transpose(words: Sequence[int], width: int) -> list[int]:
    """The bit matrix with rows ``words``, cut to ``width`` columns, by
    columns: out[i] has bit j equal to bit i of words[j]."""
    out = [0] * width
    mask = (1 << width) - 1
    for j, w in enumerate(words):
        w &= mask
        while w:
            out[(w & -w).bit_length() - 1] |= 1 << j
            w &= w - 1
    return out


@dataclass(frozen=True)
class AffineSolutionSpace:
    """Solution set {x : Mx = v} as particular point plus kernel basis."""

    particular: Optional[int]
    basis: tuple[int, ...]

    @property
    def empty(self) -> bool:
        return self.particular is None

    @property
    def size(self) -> int:
        return 0 if self.empty else 1 << len(self.basis)

    def __contains__(self, x: int) -> bool:
        return not self.empty and not extend_basis(self.basis, [x ^ self.particular])


def solve_affine(mat: GF2Matrix, v: int) -> AffineSolutionSpace:
    """Full solution set of Mx = v over GF(2), or the empty space."""
    if v >> mat.nrows:
        raise ValueError("right-hand side exceeds row count")
    aug = [mat.rows[i] | (((v >> i) & 1) << mat.ncols) for i in range(mat.nrows)]
    return solve_affine_batch(_word_system(aug, mat.ncols), mat.ncols)[0]


def _word_system(rows: Sequence[int], ncols: int) -> np.ndarray:
    """Rows of at most ncols + 1 bits as one system of uint64 words, shape
    (1, rows, ncols // 64 + 1), laid out as ``solve_affine_batch`` takes it."""
    nwords = ncols // 64 + 1
    words = [[(r >> (64 * k)) & _WORD for k in range(nwords)] for r in rows]
    return np.array(words, dtype=np.uint64).reshape(1, len(rows), nwords)


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a bool array into uint64 words: bit j goes to
    bit j % 64 of word j // 64."""
    nbits = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (-(-nbits // 64) * 64,), dtype=bool)
    padded[..., :nbits] = bits
    packed = np.packbits(padded, axis=-1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _ints(bits: np.ndarray) -> list[int]:
    """The rows of a 2-D bool array as ints, column j as bit j."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def solve_affine_batch(aug: np.ndarray, ncols: int) -> list[AffineSolutionSpace]:
    """Solution sets of many systems M_s x = v_s over GF(2), solved at once.

    ``aug`` has shape (systems, rows, words) with words = ncols // 64 + 1:
    row i of system s holds row i of M_s in bits 0 .. ncols - 1 and
    v_s[i] in bit ncols, packed as by ``pack_words``. ``_gauss_jordan``
    reduces all systems together. The reduced row echelon form is unique,
    so each space is the one any Gauss-Jordan gives: the particular point
    has its free variables 0 and the kernel basis is ordered by free column.
    Temporaries hold O(systems * rows * (ncols + 1)) cells; callers split
    large batches.
    """
    aug = np.array(aug, dtype=np.uint64)
    nwords = ncols // 64 + 1
    if aug.ndim != 3 or aug.shape[2] != nwords:
        raise ValueError(f"expected (systems, rows, {nwords}) words")
    top = ncols % 64 + 1
    if top < 64 and (aug[:, :, -1] >> np.uint64(top)).any():
        raise ValueError(f"row exceeds {ncols + 1} bits")
    if aug.shape[1] == 0:
        # no equations: one zero equation gives the same space
        aug = np.zeros((aug.shape[0], 1, nwords), dtype=np.uint64)
    pivot_row, unused = _gauss_jordan(aug, ncols)
    # an unused row is zero on the matrix columns; a 1 left in it is 0 = 1
    empty = (unused & (aug != 0).any(axis=2)).any(axis=1)
    out = [AffineSolutionSpace(None, ())] * aug.shape[0]
    solvable = np.flatnonzero(~empty)
    if solvable.size == 0:
        return out
    piv = pivot_row[solvable]
    rows = aug[solvable[:, None], np.maximum(piv, 0)]
    cols = np.arange(ncols + 1)
    bits = ((rows[:, :, cols >> 6] >> (cols & 63).astype(np.uint64))
            & np.uint64(1)).astype(bool)
    # bits[k, p, c]: bit c of the reduced row whose pivot is column p
    bits &= (piv >= 0)[:, :, None]
    particular = _ints(bits[:, :, ncols])
    # free column f: e_f plus e_p for each pivot column p whose row has bit f
    kernel = bits[:, :, :ncols].transpose(0, 2, 1) | np.eye(ncols, dtype=bool)
    for k, s in enumerate(solvable.tolist()):
        free = np.flatnonzero(piv[k] < 0)
        out[s] = AffineSolutionSpace(particular[k], tuple(_ints(kernel[k, free])))
    return out


def _gauss_jordan(aug: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce every system of ``aug`` (uint64 words, shape (systems, rows >=
    1, words)) in place to reduced row echelon form on columns 0 .. ncols - 1,
    one column at a time: each system takes as pivot its first unused row
    with that bit and adds it to its other rows with the bit. Rows are not
    moved. Returns (pivot_row, unused): pivot_row[s, c] is the row of system
    s whose pivot is column c, or -1, and unused[s, i] says that row i of
    system s holds no pivot."""
    nsys, nrows, _ = aug.shape
    systems = np.arange(nsys)
    unused = np.ones((nsys, nrows), dtype=bool)
    pivot_row = np.full((nsys, ncols), -1)
    for col in range(ncols):
        has = (aug[:, :, col >> 6] & np.uint64(1 << (col & 63))) != 0
        cand = has & unused
        row = cand.argmax(axis=1)
        found = cand[systems, row]
        if not found.any():
            continue
        # a system without a pivot here adds a zero word to its rows
        pivot = aug[systems, row]
        pivot[~found] = 0
        has[systems, row] = False
        aug ^= pivot[:, None, :] * has[:, :, None]
        unused[systems, row] &= ~found
        pivot_row[:, col] = np.where(found, row, -1)
    return pivot_row, unused


def span(words: np.ndarray) -> np.ndarray:
    """out[..., t] = XOR of words[..., i] over the set bits i of t: the 2^k
    combinations of the k words on the last axis, in the input dtype (use
    object for words wider than 64 bits)."""
    words = np.asarray(words)
    k = words.shape[-1]
    out = np.zeros(words.shape[:-1] + (1 << k,), dtype=words.dtype)
    for i in range(k):
        np.bitwise_xor(out[..., :1 << i], words[..., i:i + 1], out=out[..., 1 << i:2 << i])
    return out


def random_matrix(nrows: int, ncols: int, rng) -> GF2Matrix:
    return GF2Matrix(nrows, ncols,
                     tuple(rng.getrandbits(ncols) for _ in range(nrows)))


def random_invertible(n: int, rng) -> GF2Matrix:
    while True:
        m = random_matrix(n, n, rng)
        if rank(m) == n:
            return m
