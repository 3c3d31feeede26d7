"""GF(2) linear algebra and binary finite-field arithmetic on machine words.

Bit vectors are plain Python ints: bit i holds coordinate x_i, so XOR is
vector addition and ``(x & y).bit_count() & 1`` is the canonical inner
product. Callers keep track of widths; routines that need one take it
explicitly or read it from a context object (FieldSpec, GF2Matrix).
Widths are capped at 16 so every table of 2**n entries stays in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

MAX_WIDTH = 16


def inner_product(x: int, y: int) -> int:
    """Parity of the coordinatewise AND of two bit vectors."""
    return (x & y).bit_count() & 1


def lowest_set_bit(x: int) -> int:
    """Keep only the least significant set bit of ``x`` (0 for x = 0)."""
    return x & -x


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


def poly_mulmod(a: int, b: int, m: int) -> int:
    return poly_mod(poly_mul(a, b), m)


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


@lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    out, d, k = [], 2, n
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return tuple(out)


def is_irreducible(modulus: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial given as an int."""
    n = modulus.bit_length() - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    # t_k = x^(2^k) mod modulus, by repeated squaring
    x = 0b10
    t = x
    powers = {}
    for k in range(1, n + 1):
        t = poly_mulmod(t, t, modulus)
        powers[k] = t
    if powers[n] != x:
        return False
    for p in _prime_divisors(n):
        if poly_gcd(modulus, powers[n // p] ^ x) != 1:
            return False
    return True


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

    ``generator`` is the class of X (word value 2) unless overridden; every
    g^k coefficient in univariate representations refers to its powers.
    """

    n: int
    modulus: int
    generator: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_WIDTH:
            raise ValueError(f"field degree {self.n} outside [1, {MAX_WIDTH}]")
        if self.modulus.bit_length() != self.n + 1:
            raise ValueError(
                f"modulus {self.modulus:#x} does not have degree {self.n}")
        if not is_irreducible(self.modulus):
            raise ValueError(f"modulus {self.modulus:#x} is reducible")
        if not 0 < self.generator < (1 << self.n):
            raise ValueError("generator out of range")
        if self.n > 1 and _field_eval_modulus(self) != 0:
            raise ValueError("generator is not a root of the modulus")

    @property
    def size(self) -> int:
        return 1 << self.n


def _field_eval_modulus(spec: FieldSpec) -> int:
    acc, m = 0, spec.modulus
    k = 0
    while m:
        if m & 1:
            acc ^= field_pow(spec, spec.generator, k)
        m >>= 1
        k += 1
    return acc


@lru_cache(maxsize=None)
def default_field(n: int) -> FieldSpec:
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


@lru_cache(maxsize=64)
def exp_table(spec: FieldSpec) -> tuple[int, ...]:
    """Powers g^0, g^1, ... of the generator up to (not including) its order."""
    out = [1]
    t = field_mul(spec, 1, spec.generator)
    while t != 1:
        out.append(t)
        t = field_mul(spec, t, spec.generator)
    return tuple(out)


@lru_cache(maxsize=64)
def log_table(spec: FieldSpec) -> dict[int, int]:
    return {v: k for k, v in enumerate(exp_table(spec))}


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

class GF2Matrix:
    """A dense GF(2) matrix with word-packed rows."""

    __slots__ = ("nrows", "ncols", "rows", "_lut")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[int]):
        rows = tuple(rows)
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        mask = (1 << ncols) - 1
        for r in rows:
            if r & ~mask:
                raise ValueError("row exceeds declared width")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self._lut: Optional[tuple[int, ...]] = None

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "GF2Matrix":
        return cls(nrows, ncols, (0,) * nrows)

    @classmethod
    def from_columns(cls, cols: Sequence[int], nrows: int) -> "GF2Matrix":
        rows = [0] * nrows
        for j, c in enumerate(cols):
            for i in range(nrows):
                rows[i] |= ((c >> i) & 1) << j
        return cls(nrows, len(cols), tuple(rows))

    def column(self, j: int) -> int:
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r >> j) & 1) << i
        return out

    def columns(self) -> list[int]:
        return [self.column(j) for j in range(self.ncols)]

    def mul_vec(self, x: int) -> int:
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r & x).bit_count() & 1) << i
        return out

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix.from_columns(self.rows, self.ncols)

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
        """Images of all 2**ncols inputs, built incrementally."""
        if self._lut is None:
            cols = self.columns()
            out = [0] * (1 << self.ncols)
            for x in range(1, 1 << self.ncols):
                lsb = x & -x
                out[x] = out[x ^ lsb] ^ cols[lsb.bit_length() - 1]
            self._lut = tuple(out)
        return self._lut

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GF2Matrix)
                and self.nrows == other.nrows
                and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"GF2Matrix({self.nrows}x{self.ncols}, rows={self.rows!r})"


def rref(mat: GF2Matrix) -> tuple[GF2Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form; pivots take the lowest-index free column."""
    rows = list(mat.rows)
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
    return GF2Matrix(mat.nrows, mat.ncols, tuple(rows)), r, tuple(pivots)


def rank(mat: GF2Matrix) -> int:
    return rref(mat)[1]


@dataclass(frozen=True)
class AffineSolutionSpace:
    """Solution set {x : Mx = v} as particular point plus kernel basis."""

    dim: int
    particular: Optional[int]
    basis: tuple[int, ...]

    @property
    def empty(self) -> bool:
        return self.particular is None

    @property
    def size(self) -> int:
        return 0 if self.empty else 1 << len(self.basis)

    def __iter__(self) -> Iterator[int]:
        if self.empty:
            return
        span = [0] * (1 << len(self.basis))
        for t in range(1, len(span)):
            lsb = t & -t
            span[t] = span[t ^ lsb] ^ self.basis[lsb.bit_length() - 1]
        for s in span:
            yield self.particular ^ s

    def __contains__(self, x: int) -> bool:
        if self.empty:
            return False
        # echelonize the basis so reduction pivots are well defined
        echelon: list[int] = []
        for b in self.basis:
            for row in echelon:
                if b & (row & -row):
                    b ^= row
            if b:
                echelon.append(b)
                echelon.sort(key=lambda r: r & -r)
        v = x ^ self.particular
        for row in echelon:
            if v & (row & -row):
                v ^= row
        return v == 0


def solve_affine(mat: GF2Matrix, v: int) -> AffineSolutionSpace:
    """Full solution set of Mx = v over GF(2), or the empty space."""
    if v >> mat.nrows:
        raise ValueError("right-hand side exceeds row count")
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


def random_matrix(nrows: int, ncols: int, rng) -> GF2Matrix:
    return GF2Matrix(nrows, ncols,
                     tuple(rng.getrandbits(ncols) for _ in range(nrows)))


def random_invertible(n: int, rng) -> GF2Matrix:
    while True:
        m = random_matrix(n, n, rng)
        if rank(m) == n:
            return m
