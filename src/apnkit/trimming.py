"""Trims: hyperplane restrictions with one projected output component.

A trim of F: F_2^n -> F_2^n restricts the input to a hyperplane H (either
alpha-orthogonal or its affine complement) and composes the output with
the projection x -> x + beta * <gamma, x> onto the complement of beta,
yielding an (n-1)-bit function. Collecting one representative for every
(H, beta) choice gives the trim spectrum, a multiset of 2*(2^n - 1)^2
signature classes that is invariant under EA-equivalence.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Iterator, Optional, Sequence

import numpy as np

from .gf2 import inner_product, lowest_set_bit, span
from .ortho import (Columns, InvariantSignature, invariant_signature,
                    signatures_of_columns, signatures_of_tables)
from .vbf import (_POP16, _PAR16, VBF, _ddt_blocks, _fwht, _mobius, _row_chunks,
                  _row_hists, _walsh_blocks, derivative, is_apn)

SIDES = ("linear", "affine")


@dataclass(frozen=True)
class Hyperplane:
    """H = alpha-orthogonal when side is "linear", its complement otherwise."""

    alpha: int
    side: str = "linear"

    def __post_init__(self) -> None:
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")


@dataclass(frozen=True)
class TrimDescriptor:
    """One trim choice: hyperplane, projected component beta, and the
    auxiliary offsets (epsilon picks the coset point, gamma the projection
    direction). Any valid (epsilon, gamma) yield affine-equivalent trims."""

    hyperplane: Hyperplane
    beta: int
    epsilon: int
    gamma: int

    def __post_init__(self) -> None:
        if self.beta == 0:
            raise ValueError("beta must be nonzero")
        if inner_product(self.beta, self.gamma) != 1:
            raise ValueError("<beta, gamma> must be 1")
        if self.hyperplane.side == "linear":
            if self.epsilon != 0:
                raise ValueError("epsilon must be 0 on the linear side")
        elif inner_product(self.hyperplane.alpha, self.epsilon) != 1:
            raise ValueError("epsilon must lie outside the hyperplane")

    @classmethod
    def canonical(cls, alpha: int, side: str, beta: int) -> "TrimDescriptor":
        """Lexicographically smallest valid epsilon and gamma."""
        eps = 0 if side == "linear" else lowest_set_bit(alpha)
        return cls(Hyperplane(alpha, side), beta, eps, lowest_set_bit(beta))


def project(beta: int, gamma: int, x: int) -> int:
    """x -> x + beta * <gamma, x>, the projection onto gamma-orthogonal."""
    if inner_product(beta, gamma) != 1:
        raise ValueError("<beta, gamma> must be 1")
    return x ^ (beta if inner_product(gamma, x) else 0)


def hyperplane_basis(alpha: int, n: int) -> tuple[int, ...]:
    """Deterministic basis {e_j + alpha_j e_i : j != i} of alpha-orthogonal,
    where i is the lowest set bit of alpha."""
    if not 0 < alpha < (1 << n):
        raise ValueError(f"alpha must lie in [1, 2^{n}), got {alpha}")
    i = lowest_set_bit(alpha).bit_length() - 1
    return tuple((1 << j) | (((alpha >> j) & 1) << i) for j in range(n) if j != i)


def _embedded_points(alpha, n: int) -> np.ndarray:
    """Coordinates 0 .. 2^(n-1)-1 mapped through hyperplane_basis(alpha), for
    an int alpha or, one row each, for a column of them."""
    alpha = np.asarray(alpha, dtype=np.int64)
    bit = alpha & -alpha                            # lowest set bit of alpha
    xs = np.arange(1 << (n - 1))
    x0 = (xs & (bit - 1)) | ((xs & -bit) << 1)      # a 0 inserted at that bit
    return x0 | _PAR16[x0 & alpha] * bit


def trim(f: VBF, d: TrimDescriptor) -> VBF:
    """Materialize one trim as an (n-1)-bit table.

    Domain coordinates follow hyperplane_basis(alpha); codomain coordinates
    are gamma-orthogonal read through hyperplane_basis(gamma), which
    amounts to dropping the lowest set bit of gamma.
    """
    check_trimmable(f)
    n = f.n
    alpha = d.hyperplane.alpha
    if (alpha | d.beta | d.epsilon | d.gamma) >> n:
        raise ValueError("descriptor does not fit the dimension")
    tabs = _tables_for_alpha(f, [alpha], [d.epsilon], [d.beta], [d.gamma])
    return VBF(n - 1, n - 1, tabs[0])


def _restricted_values(f: VBF, alpha: int, side: str) -> np.ndarray:
    """F on the hyperplane (alpha, side) under canonical epsilon, in the
    coordinates of hyperplane_basis(alpha)."""
    eps = 0 if side == "linear" else lowest_set_bit(alpha)
    return f.table[_embedded_points(alpha, f.n) ^ eps]


def _tables_for_alpha(f: VBF, alpha, epsilon, beta, gamma) -> np.ndarray:
    """The tables of the trims (alpha[t], epsilon[t], beta[t], gamma[t]) of
    TrimDescriptor, one row each: F on epsilon + alpha-orthogonal, projected
    by x -> x + beta <gamma, x>, with the lowest set bit of gamma dropped."""
    alpha, epsilon, beta, gamma = (np.asarray(v, dtype=np.int64)[:, None]
                                   for v in (alpha, epsilon, beta, gamma))
    vals = f.table[_embedded_points(alpha, f.n) ^ epsilon].astype(np.int64)
    vals ^= _PAR16[vals & gamma] * beta
    low = (gamma & -gamma) - 1
    return ((vals & low) | ((vals >> 1) & ~low)).astype(np.uint16)


def _canonical_tables(f: VBF, trims: Sequence[tuple[int, str, int]]) -> np.ndarray:
    """The tables of the trims (alpha, side, beta) of ``trims`` under
    canonical epsilon and gamma, one row each."""
    alpha, beta = (np.array([t[i] for t in trims]) for i in (0, 2))
    affine = np.array([t[1] == "affine" for t in trims])
    return _tables_for_alpha(f, alpha, affine * (alpha & -alpha), beta, beta & -beta)


def _sums_over_orthogonal(h: np.ndarray) -> np.ndarray:
    """s[:, beta] = sum of h[:, v] over v != 0 orthogonal to beta, for every
    beta at once, by one Hadamard transform along the last axis."""
    h = h.astype(np.int64)
    h[:, 0] = 0
    return (h.sum(axis=1, keepdims=True) + _fwht(h)) // 2


def _trim_degrees(v: np.ndarray, n: int) -> np.ndarray:
    """Degree of trim beta, for beta = 1 .. 2^n - 1, from the values v of F
    on the hyperplane."""
    top = np.zeros(1 << n, dtype=np.int64)       # top weight per ANF word
    np.maximum.at(top, _mobius(v), _POP16[:v.size])
    top[0] = 0
    word = int(np.argmax(top))
    deg = np.full(1 << n, top[word])
    top[word] = 0
    deg[word] = top.max()
    return deg[1:]


def _signatures(f: VBF, alpha: int, side: str, ddt: Columns, walsh: Columns,
                degrees: np.ndarray) -> list[InvariantSignature]:
    """Signatures of the trims (alpha, side, beta), beta = 1 .. 2^n - 1, from
    a kernel's columns and degrees, row beta - 1 each; only the APN trims of
    degree 2 are built as tables, for their ortho spectra."""
    return signatures_of_columns(f.n - 1, degrees, ddt, walsh, lambda rows: _canonical_tables(
        f, [(alpha, side, b + 1) for b in rows.tolist()]))


# ---------------------------------------------------------------------------
# trims of functions of degree <= 2, read off the parent's derivative table
# ---------------------------------------------------------------------------
#
# For deg(F) <= 2 and H = alpha-orthogonal (k = n - 1), the table
# D[x, y] = F(x) + F(y) + F(x + y) + F(0) over x, y in H is bilinear, and the
# linear-side trim T = P o F|H (P linear with kernel {0, beta}) satisfies
# T(x) + T(x + a) = P(D[a, x]) + const. Hence, with c_a(v) = #{x : D[a, x] = v}:
#   - DDT row a of T holds 2^k / K entries equal to K = c_a(0) + c_a(beta)
#     and zeros elsewhere; T is APN iff K = 2 for every a != 0, i.e. every
#     row a != 0 of D has exactly two zeros and beta occurs nowhere in D.
#   - The components of T are v.F|H for v != 0 orthogonal to beta. The
#     alternating form v.D has a radical of size 2^(k - rho), and the
#     component has |Walsh| 2^(k - rho/2) on 2^rho points, 0 elsewhere.
#     T has degree 2 iff some such v has rho > 0.
#   - A trim of degree <= 1 needs no table: whether it has degree 0 or 1 is
#     read off the ANF of F on its hyperplane (_trim_degrees), which is
#     computed only for hyperplanes that have such trims.
#   - The affine-side trim equals its linear twin plus an affine map, so the
#     two have the same DDT and |Walsh| histograms and, when T has degree 2,
#     the same signature.
# Only APN trims of degree 2 are built as tables, for their ortho spectra,
# and only on the linear side.
#
# All hyperplanes at once: with B(a, x) = F(a + x) + F(a) + F(x) + F(0) on
# F_2^n and W the Hadamard transform over a of c[a, beta] = #{x : B(a, x) =
# beta}, beta occurs N(alpha, beta) = (W[0, beta] + 3 W[alpha, beta]) / 4
# times in D, as B is symmetric and B(a, a + s) = B(a, s). Row a = 0 of D
# holds 2^(n-1) zeros and every other row a power of two >= 2, so trim
# (alpha, beta) is APN iff N(alpha, 0) = 3 * 2^(n-1) - 2 and N(alpha, beta) = 0.

def _derivative_table(f: VBF, alpha: int) -> np.ndarray:
    """D[x, y] over x, y in alpha-orthogonal, both in the coordinates of
    hyperplane_basis(alpha)."""
    v = _restricted_values(f, alpha, "linear")
    xs = np.arange(v.size)
    return derivative(v, xs[:, None], xs)


def _zeros_first(counts: np.ndarray, total: int) -> np.ndarray:
    """counts behind a first column that brings every row's sum to total."""
    return np.concatenate([total - counts.sum(axis=1, keepdims=True), counts], axis=1)


def _quadratic_counts(d: np.ndarray, n: int) -> tuple[Columns, Columns]:
    """((dvals, ddt), (wvals, walsh)): ddt[beta - 1, j] DDT cells a != 0 of
    trim beta equal to dvals[j], and walsh[beta - 1, j] |Walsh| values of
    its components equal to wvals[j], for beta = 1 .. 2^n - 1."""
    k = n - 1
    size = 1 << k
    total = size * (size - 1)       # DDT cells a != 0; |Walsh| values v != 0
    c = _row_hists(d, 1 << n)
    kern = c[1:, :1] + c[1:, 1:]                       # (a != 0, beta)
    # per_k[beta - 1, j - 1] rows a != 0 with K = 2^j, each with 2^k / K cells K
    j = np.arange(1, k + 1)
    per_k = _row_hists(np.log2(kern).astype(np.int64).T, k + 1)[:, 1:]
    ddt = _zeros_first(per_k * (size >> j), total)

    # rows[v, i] = row i of the Gram matrix of v.D on the coordinate basis;
    # the radical is the set of x with sum_i x_i rows[v, i] = 0
    unit = 1 << np.arange(k)
    gram = d[np.ix_(unit, unit)]
    vs = np.arange(1 << n, dtype=np.uint16)
    bits = _PAR16[vs[:, None, None] & gram[None, :, :]].astype(np.uint16)
    rows = (bits << np.arange(k, dtype=np.uint16)).sum(axis=2, dtype=np.uint16)
    half = (k - np.log2((span(rows) == 0).sum(axis=1)).astype(np.int64)) // 2
    # comps[beta - 1, r] = #{v != 0, v.beta = 0, rho_v = 2r}, by one Hadamard
    # transform; such a component has |Walsh| 2^(k - r) on 4^r points
    onehot = half[None, :] == np.arange(k // 2 + 1)[:, None]
    comps = _sums_over_orthogonal(onehot)[:, 1:].T
    r = np.arange(k // 2, -1, -1)
    walsh = _zeros_first(comps[:, r] << 2 * r, total)
    return (np.append(0, 1 << j), ddt), (np.append(0, size >> r), walsh)


def _quadratic_signatures(f: VBF, alpha: int, sides: Sequence[str]) -> list[InvariantSignature]:
    """Signatures of the trims (alpha, side, beta) of a function of degree
    <= 2, beta = 1 .. 2^n - 1, for each side of ``sides``: ("linear",) or
    SIDES."""
    n = f.n
    ddt, walsh = _quadratic_counts(_derivative_table(f, alpha), n)
    flat = ~walsh[1][:, 1:-1].any(axis=1)       # no component with rho > 0

    def degrees(side: str) -> np.ndarray:
        deg = np.full(flat.size, 2)
        if flat.any():
            deg[flat] = _trim_degrees(_restricted_values(f, alpha, side), n)[flat]
        return deg

    sigs = _signatures(f, alpha, "linear", ddt, walsh, degrees("linear"))
    if "affine" not in sides:
        return sigs
    # an affine-side trim differs from its linear twin by an affine map
    twins = [s if s.degree == 2 else replace(s, degree=int(d))
             for s, d in zip(sigs, degrees("affine"))]
    return sigs + twins


def _quadratic_apn_trims(f: VBF) -> Iterator[tuple[int, str, int]]:
    """The trims (alpha, side, beta) the kernel claims APN for a function of
    degree <= 2, in ascending order, in blocks of at most _BATCH_CELL_LIMIT
    / 2^8 cells (larger ones run no faster). The affine side is claimed only
    for n = 2: for n > 2 its APN trims have degree 2 and repeat the
    signatures of their linear twins."""
    size = 1 << f.n
    xs = np.arange(size, dtype=np.int32)
    blocks = list(_row_chunks(0, size, size << 8))
    c = np.empty((size, size), dtype=np.int32)                  # c[a, beta]
    for lo, hi in blocks:
        c[lo:hi] = _row_hists(derivative(f.table, xs[lo:hi, None], xs), size)
    w0 = _fwht(c[:, 0].astype(np.int64))
    alphas = np.flatnonzero(w0[0] + 3 * w0 == 6 * size - 8)    # N(alpha, 0)
    apn = np.empty((alphas.size, size), dtype=bool)             # N(alpha, beta) = 0
    for lo, hi in blocks:
        w = _fwht(np.ascontiguousarray(c[:, lo:hi].T, dtype=np.int64))  # w[beta - lo, alpha]
        apn[:, lo:hi] = (w[:, :1] + 3 * w[:, alphas] == 0).T
    for alpha, row in zip(alphas.tolist(), apn):
        for side in SIDES if f.n == 2 else ("linear",):
            yield from ((alpha, side, beta) for beta in np.flatnonzero(row).tolist())


# ---------------------------------------------------------------------------
# trims of any function, read off F restricted to the hyperplane
# ---------------------------------------------------------------------------
#
# Let H = epsilon + alpha-orthogonal (k = n - 1) and T = P o F|H, where P is
# linear with kernel {0, beta}. With delta[a, c] = #{x in H : F(x + a) +
# F(x) = c} for a != 0 in alpha-orthogonal and c in F_2^n:
#   - DDT cell (a, b) of T is delta[a, c] + delta[a, c + beta], where
#     {c, c + beta} = P^-1(b); the DDT histogram of T is half the histogram
#     of delta[a, c] + delta[a, c + beta] over all (a, c). The number of
#     (a, c) with delta[a, c] = s and delta[a, c + beta] = t is an XOR
#     correlation, 2^-n WHT(sum_a WHT(S_a) WHT(T_a)) at beta, where S_a and
#     T_a are the indicators of delta[a, .] = s and = t. Every partial sum
#     stays below 2^(3n - 1), so int64 is exact.
#   - The components of T are v.F|H for v != 0 orthogonal to beta, each
#     once, so its |Walsh| histogram is the sum of the histograms of rows v
#     of the Walsh matrix of F|H.
#   - The ANF of T is P applied to the ANF words of F|H, so deg T is the
#     largest weight of a monomial whose word is neither 0 nor beta.
#   - T is APN iff no DDT value exceeds 2.
# Only APN trims of degree 2 are built as tables, for their ortho spectra.

def _trim_ddt_counts(v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, counts): counts[beta - 1, j] DDT cells a != 0 of trim beta
    equal values[j], for beta = 1 .. 2^n - 1."""
    size = v.size
    seen = np.zeros(size + 1, dtype=bool)
    for _, delta in _ddt_blocks(v[None, :], n):
        seen[delta] = True
    vals = np.flatnonzero(seen)                   # vals[0] = 0: rows have zeros
    sums, pair = np.unique(vals[:, None] + vals[None, :], return_inverse=True)
    to_sum = (pair.reshape(-1, 1) == np.arange(sums.size)).astype(np.int64)
    acc = np.zeros((1 << n, sums.size), dtype=np.int64)
    for _, block in _ddt_blocks(v[None, :], n, row_cells=vals.size << n):
        delta = block[0]
        spec = np.empty((delta.shape[0], vals.size, 1 << n), dtype=np.int64)
        spec[:, 1:] = _fwht((delta[:, None, :] == vals[1:, None]).astype(np.int64))
        # the indicators of all values sum to 1, whose transform is 2^n at 0
        spec[:, 0] = -spec[:, 1:].sum(axis=1)
        spec[:, 0, 0] += 1 << n
        spec = spec.transpose(2, 0, 1)                   # (c, a, s)
        prod = np.matmul(spec.transpose(0, 2, 1), spec)  # (c, s, t)
        acc += prod.reshape(1 << n, -1) @ to_sum
    counts = _fwht(np.ascontiguousarray(acc.T)) >> (n + 1)
    return sums, counts[:, 1:].T


def _trim_walsh_counts(v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, counts): counts[beta - 1, j] |Walsh| values of trim beta
    equal to values[j], for beta = 1 .. 2^n - 1."""
    size = v.size
    cols: dict[int, np.ndarray] = {}
    for lo, w in _walsh_blocks(v[None, :], n):
        h = _row_hists(np.abs(w[0], out=w[0]), size + 1)
        for val in np.flatnonzero(h.any(axis=0)).tolist():
            cols.setdefault(val, np.zeros(1 << n, dtype=np.int64))[lo:lo + len(h)] = h[:, val]
    vals = sorted(cols)
    counts = _sums_over_orthogonal(np.array([cols[x] for x in vals]))
    return np.array(vals), counts[:, 1:].T


def _general_signatures(f: VBF, alpha: int, side: str) -> list[InvariantSignature]:
    """Signatures of the trims (alpha, side, beta), beta = 1 .. 2^n - 1, of
    a function of any degree."""
    v = _restricted_values(f, alpha, side)
    return _signatures(f, alpha, side, _trim_ddt_counts(v, f.n),
                       _trim_walsh_counts(v, f.n), _trim_degrees(v, f.n))


def _general_apn_trims(f: VBF) -> Iterator[tuple[int, str, int]]:
    """The trims (alpha, side, beta) the kernel claims APN for any function,
    in ascending order, one hyperplane at a time as the caller reaches it."""
    for alpha in range(1, 1 << f.n):
        for side in SIDES:
            vals, counts = _trim_ddt_counts(_restricted_values(f, alpha, side), f.n)
            for beta in (np.flatnonzero(~counts[:, vals > 2].any(axis=1)) + 1).tolist():
                yield alpha, side, beta


def _apn_claims(f: VBF) -> Iterator[tuple[int, str, int]]:
    """The trims (alpha, side, beta) the kernel for f's degree claims APN."""
    return (_quadratic_apn_trims if f.degree <= 2 else _general_apn_trims)(f)


def descriptor_count(n: int, quadratic_reduced: bool = False) -> int:
    c = (1 << n) - 1
    return c * c if quadratic_reduced else 2 * c * c


@dataclass
class TrimSpectrum:
    """Multiset of trim signatures over all (H, beta) choices."""

    n: int
    quadratic_reduced: bool
    counts: dict[InvariantSignature, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def distinct(self) -> int:
        return len(self.counts)

    def apn_signatures(self) -> list[InvariantSignature]:
        return sorted((s for s in self.counts if s.apn),
                      key=lambda s: s.canonical())


def check_trimmable(f: VBF, quadratic_reduced: bool = False) -> None:
    """Raise ValueError unless f has trim spectra (of the requested kind)."""
    if f.n != f.m:
        raise ValueError("trims are defined for n = m")
    if f.n < 2:
        raise ValueError("trims need n >= 2")
    if quadratic_reduced and f.degree > 2:
        raise ValueError("quadratic-reduced trim spectrum needs degree <= 2")


def _count_signatures(sigs: Sequence[InvariantSignature]) -> Counter:
    """Counter(sigs), hashing each distinct object once: the kernels repeat
    one memoized object per distinct signature, and a signature's hash
    walks its nested spectra every time."""
    objs = {id(s): s for s in sigs}
    counts: Counter = Counter()
    for i, c in Counter(map(id, sigs)).items():
        counts[objs[i]] += c
    return counts


def _hyperplane_counts(f: VBF, alpha: int, quadratic_reduced: bool) -> Counter:
    """Signature counts of the trims on alpha-orthogonal and, unless
    quadratic_reduced, on its complement."""
    sides = ("linear",) if quadratic_reduced else SIDES
    if f.degree > 2:
        return _count_signatures([s for side in sides
                                  for s in _general_signatures(f, alpha, side)])
    return _count_signatures(_quadratic_signatures(f, alpha, sides))


def _spectrum_share(table: np.ndarray, n: int, alphas: Sequence[int],
                    quadratic_reduced: bool) -> Counter:
    """Signature counts of the trims on the hyperplanes ``alphas``; the
    picklable worker of trim_spectrum."""
    f = VBF(n, n, table)
    counts: Counter = Counter()
    for alpha in alphas:
        counts.update(_hyperplane_counts(f, alpha, quadratic_reduced))
    return counts


def trim_spectrum(f: VBF, quadratic_reduced: bool = False,
                  workers: int = 1) -> TrimSpectrum:
    """The trim spectrum of f. The hyperplanes are split into ``workers``
    strided shares; one share runs in this process, more run in a pool of
    at most min(2^n - 1, CPU count) processes, one share each: the shares
    are CPU-bound, so more processes than CPUs cannot finish sooner."""
    check_trimmable(f, quadratic_reduced)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    alphas = range(1, 1 << f.n)
    workers = min(workers, len(alphas), os.cpu_count() or 1)
    args = ([f.table] * workers, [f.n] * workers,
            [alphas[i::workers] for i in range(workers)], [quadratic_reduced] * workers)
    if workers == 1:
        shares = map(_spectrum_share, *args)
    else:
        # imported on use: at module level it adds ~30 ms and ~1 MB to
        # every `import apnkit`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = list(pool.map(_spectrum_share, *args))
    counts: Counter = Counter()
    for share in shares:
        counts.update(share)
    return TrimSpectrum(f.n, quadratic_reduced, dict(counts))


def _iter_apn_trims(f: VBF, trims: Sequence[tuple[int, str, int]]
                    ) -> Iterator[tuple[TrimDescriptor, VBF, InvariantSignature]]:
    """The claimed APN trims (alpha, side, beta) ``trims`` in their order,
    with tables and signatures, built and classified together; a claimed
    trim whose table is not APN is an internal error."""
    if not trims:
        return
    k = f.n - 1
    tabs = _canonical_tables(f, trims)
    sigs = signatures_of_tables(tabs, k)
    bad = [t for t, sig in zip(trims, sigs) if not sig.apn]
    if bad:
        raise RuntimeError(f"kernel claims the trim {bad[0]} APN, but its table is not")
    for (alpha, side, beta), tab, sig in zip(trims, tabs, sigs):
        yield TrimDescriptor.canonical(alpha, side, beta), VBF(k, k, tab), sig


def apn_trims(f: VBF) -> list[tuple[TrimDescriptor, InvariantSignature]]:
    """Distinct APN trim signatures with one witness descriptor each."""
    check_trimmable(f)
    seen: dict[InvariantSignature, TrimDescriptor] = {}
    for d, _, sig in _iter_apn_trims(f, list(_apn_claims(f))):
        if sig not in seen:
            seen[sig] = d
    return [(d, s) for s, d in seen.items()]


def recursive_witness(f: VBF) -> Optional[list[VBF]]:
    """A chain [F_n, F_(n-1), ..., F_2] of APN functions linked by trims,
    or None if no such chain exists.

    Depth-first search over APN trims, deduplicated by signature within a
    node and memoizing failed signatures per dimension.
    """
    check_trimmable(f)
    if not is_apn(f):
        raise ValueError("recursive witness requires an APN function")
    failed: dict[int, set[InvariantSignature]] = defaultdict(set)
    chain = [f]

    def descend(g: VBF) -> bool:
        k = g.n
        if k == 2:
            return True
        # one hyperplane at a time, so the search stops at the first chain
        hyperplanes = groupby(_apn_claims(g), key=lambda t: t[0])
        trims = (t for _, claims in hyperplanes for t in _iter_apn_trims(g, list(claims)))
        for _, t, sig in trims:
            if sig in failed[k - 1]:
                continue
            chain.append(t)
            if descend(t):
                return True
            chain.pop()
            failed[k - 1].add(sig)
        return False

    return chain if descend(f) else None


# ---------------------------------------------------------------------------
# trimming graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphNode:
    dim: int
    signature: InvariantSignature

    def node_id(self) -> str:
        return self.signature.key64()

    def sort_key(self) -> tuple[int, str]:
        return (self.dim, self.node_id())


@dataclass
class TrimmingGraph:
    """Nodes are signature classes tagged with their dimension; an edge
    from dimension k to k-1 records an APN trim with the child signature.
    Node counts are lower bounds for EA-class counts (signature collisions
    would merge nodes), which the exporters flag in their metadata."""

    nodes: set[GraphNode]
    edges: set[tuple[GraphNode, GraphNode]]

    def nonisolated(self) -> set[GraphNode]:
        out = set()
        for a, b in self.edges:
            out.add(a)
            out.add(b)
        return out


def trimming_graph(functions: Sequence[VBF]) -> TrimmingGraph:
    nodes: set[GraphNode] = set()
    edges: set[tuple[GraphNode, GraphNode]] = set()
    for f in functions:
        parent = GraphNode(f.n, invariant_signature(f))
        if not parent.signature.apn:
            raise ValueError("trimming graph inputs must be APN")
        nodes.add(parent)
        for _, sig in apn_trims(f):
            child = GraphNode(f.n - 1, sig)
            nodes.add(child)
            edges.add((parent, child))
    return TrimmingGraph(nodes, edges)
