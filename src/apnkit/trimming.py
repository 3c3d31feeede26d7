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
from dataclasses import dataclass
from itertools import groupby, product
from operator import itemgetter
from typing import Iterator, Optional, Sequence

import numpy as np

from . import ortho
from .gf2 import inner_product
from .ortho import (Columns, InvariantSignature, invariant_signature,
                    signature_keys, signature_of_key, signatures_of_tables)
from .vbf import (VBF, _ddt_blocks, _fwht, _mobius, _row_chunks, _row_hists, _stacks,
                  derivative, is_apn, walsh)

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
        eps = 0 if side == "linear" else alpha & -alpha
        return cls(Hyperplane(alpha, side), beta, eps, beta & -beta)


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
    i = (alpha & -alpha).bit_length() - 1
    return tuple((1 << j) | (((alpha >> j) & 1) << i) for j in range(n) if j != i)


def _embedded_points(alpha, n: int) -> np.ndarray:
    """Coordinates 0 .. 2^(n-1)-1 mapped through hyperplane_basis(alpha), for
    an int alpha or, one row each, for a column of them."""
    alpha = np.asarray(alpha, dtype=np.int64)
    bit = alpha & -alpha                            # lowest set bit of alpha
    xs = np.arange(1 << (n - 1))
    x0 = (xs & (bit - 1)) | ((xs & -bit) << 1)      # a 0 inserted at that bit
    return x0 | (np.bitwise_count(x0 & alpha) & 1) * bit


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


def _restricted_values(f: VBF, hyperplanes: Sequence[tuple[int, str]]) -> np.ndarray:
    """F on each hyperplane (alpha, side) of ``hyperplanes`` under canonical
    epsilon, in the coordinates of hyperplane_basis(alpha), one row each."""
    alpha = np.array([a for a, _ in hyperplanes], dtype=np.int64)[:, None]
    affine = np.array([side == "affine" for _, side in hyperplanes])[:, None]
    return f.table[_embedded_points(alpha, f.n) ^ affine * (alpha & -alpha)]


def _tables_for_alpha(f: VBF, alpha, epsilon, beta, gamma) -> np.ndarray:
    """The tables of the trims (alpha[t], epsilon[t], beta[t], gamma[t]) of
    TrimDescriptor, one row each: F on epsilon + alpha-orthogonal, projected
    by x -> x + beta <gamma, x>, with the lowest set bit of gamma dropped."""
    alpha, epsilon, beta, gamma = (np.asarray(v, dtype=np.int64)[:, None]
                                   for v in (alpha, epsilon, beta, gamma))
    vals = f.table[_embedded_points(alpha, f.n) ^ epsilon].astype(np.int64)
    vals ^= (np.bitwise_count(vals & gamma) & 1) * beta
    low = (gamma & -gamma) - 1
    return ((vals & low) | ((vals >> 1) & ~low)).astype(np.uint16)


def _canonical_tables(f: VBF, trims: Sequence[tuple[int, str, int]]) -> np.ndarray:
    """The tables of the trims (alpha, side, beta) of ``trims`` under
    canonical epsilon and gamma, one row each."""
    alpha, beta = (np.array([t[i] for t in trims]) for i in (0, 2))
    affine = np.array([t[1] == "affine" for t in trims])
    return _tables_for_alpha(f, alpha, affine * (alpha & -alpha), beta, beta & -beta)


def _sums_over_orthogonal(h: np.ndarray) -> np.ndarray:
    """s[..., beta] = sum of h[..., v] over v != 0 orthogonal to beta, for
    every beta at once, by one Hadamard transform along the last axis."""
    h = h.astype(np.int64)
    h[..., 0] = 0
    return (h.sum(axis=-1, keepdims=True) + _fwht(h)) // 2


def _trim_degrees(v: np.ndarray, n: int) -> np.ndarray:
    """deg[h, beta - 1], the degree of trim beta of hyperplane h, for beta =
    1 .. 2^n - 1, from the values v[h] of F on each hyperplane."""
    rows = np.arange(v.shape[0])
    top = np.zeros((rows.size, 1 << n), dtype=np.int64)     # top weight per ANF word
    np.maximum.at(top, (rows[:, None], _mobius(v)), np.bitwise_count(np.arange(v.shape[1])))
    top[:, 0] = 0
    word = top.argmax(axis=1)
    deg = np.repeat(top[rows, word][:, None], 1 << n, axis=1)
    top[rows, word] = 0
    deg[rows, word] = top.max(axis=1)
    return deg[:, 1:]


def _trim_keys(f: VBF, hyperplanes: Sequence[tuple[int, str]], ddt: Columns,
               walsh: Columns, degrees: np.ndarray) -> list[bytes]:
    """Keys (ortho.signature_keys) of the trims (alpha, side, beta) for each
    (alpha, side) of ``hyperplanes`` and beta = 1 .. 2^n - 1, in that order,
    from a kernel's columns and degrees, row (h, beta - 1) each; only the
    APN trims of degree 2 are built as tables, for their ortho-derivatives."""
    per = (1 << f.n) - 1
    (dvals, dcounts), (wvals, wcounts) = ddt, walsh

    def ortho_rows(rows: np.ndarray) -> np.ndarray:
        h, b = np.divmod(rows, per)
        tabs = _canonical_tables(f, [(*hyperplanes[i], j + 1)
                                     for i, j in zip(h.tolist(), b.tolist())])
        return ortho._ortho_derivatives(tabs, f.n - 1)

    return signature_keys(f.n - 1, degrees.reshape(-1),
                          (dvals, dcounts.reshape(-1, dvals.size)),
                          (wvals, wcounts.reshape(-1, wvals.size)), ortho_rows)


# ---------------------------------------------------------------------------
# trims of functions of degree <= 2, read off whole-space tables
# ---------------------------------------------------------------------------
#
# For deg(F) <= 2, B(a, x) = F(a + x) + F(a) + F(x) + F(0) is bilinear and
# alternating on F_2^n. On H = alpha-orthogonal (k = n - 1) let D be B on
# H x H; the linear-side trim T = P o F|H (P linear with kernel {0, beta})
# satisfies T(x) + T(x + a) = P(D[a, x]) + const. Hence, with c_a(v) =
# #{x in H : D[a, x] = v}:
#   - DDT row a of T holds 2^k / K entries equal to K = c_a(0) + c_a(beta)
#     and zeros elsewhere.
#   - The components of T are v.F|H for v != 0 orthogonal to beta. If the
#     alternating form v.D has rank rho, the component has |Walsh| 2^(k -
#     rho/2) on 2^rho points, 0 elsewhere. T has degree 2 iff some such v
#     has rho > 0; otherwise it has degree <= 1, and degree 0 and 1 are one
#     EA class (ortho.signature_keys).
#   - The affine-side trim equals its linear twin plus an affine map, so the
#     two are EA-equivalent and have the same signature.
# Only APN trims of degree 2 are built as tables, for their ortho spectra,
# and only on the linear side.
#
# Every hyperplane's numbers come from two tables over the whole space:
#   - Pair counts. With c[a, beta] = #{x in F_2^n : B(a, x) = beta} and W
#     its Hadamard transform over a, beta occurs N(alpha, beta) = (W[0,
#     beta] + 3 W[alpha, beta]) / 4 times in D, as B is symmetric and B(a, a
#     + s) = B(a, s). Row a = 0 of D holds 2^(n-1) zeros and every other
#     row at least the two zeros {0, a}, a count that is a power of two.
#     So N(alpha, 0) = 3 * 2^(n-1) - 2 iff every row a != 0 has c_a(0) = 2;
#     then every K is 2 or 4, and K = 4 on exactly N(alpha, beta) / 2 rows
#     (every hyperplane of an APN F is such). Trim (alpha, beta) is APN iff
#     N(alpha, 0) = 3 * 2^(n-1) - 2 and N(alpha, beta) = 0. On any other
#     hyperplane the K come from D itself.
#   - Restricted ranks. If v.B has rank rho on H, the Hadamard transform of
#     N(alpha, .) at v is the sum of (-1)^(v.B(a, x)) over a, x in H: 2^k for
#     each of the 2^(k - rho) points a of the radical, 0 elsewhere.

def _pair_counts(f: VBF) -> np.ndarray:
    """N[alpha, beta] = #{(a, x) in alpha-orthogonal^2 : B(a, x) = beta} for
    every alpha and beta of a function of degree <= 2 (alpha = 0 stands for
    the whole space), 4^n int32 counts. c is built in blocks of rows a and
    turned into N in place in blocks of columns beta, each of at most
    _BATCH_CELL_LIMIT / 2^8 cells (larger ones run no faster)."""
    size = 1 << f.n
    xs = np.arange(size, dtype=np.int32)
    blocks = list(_row_chunks(0, size, size << 8))
    c = np.empty((size, size), dtype=np.int32)                  # c[a, beta]
    for lo, hi in blocks:
        c[lo:hi] = _row_hists(derivative(f.table, xs[lo:hi, None], xs), size)
    for lo, hi in blocks:
        w = _fwht(np.ascontiguousarray(c[:, lo:hi].T, dtype=np.int64))  # w[beta - lo, alpha]
        c[:, lo:hi] = ((w[:, :1] + 3 * w) >> 2).T
    return c


def _restricted_ranks(pairs: np.ndarray, n: int) -> np.ndarray:
    """half[h, v], half the rank of v.B on alpha-orthogonal, for the rows
    pairs[h] = N(alpha, .) of _pair_counts and every v, int8 values (1 less
    for alpha = 0, the whole space), in blocks of rows as in _pair_counts;
    exact in int32: row alpha sums to 4^k."""
    half = np.empty(pairs.shape, dtype=np.int8)
    for lo, hi in _row_chunks(0, pairs.shape[0], 1 << (n + 8)):
        t = _fwht(pairs[lo:hi].astype(np.int32))          # 2^(2k - rho); astype copies
        half[lo:hi] = n - 1 - (np.log2(t).astype(np.int8) >> 1)
    return half


def _zeros_first(counts: np.ndarray, total: int) -> np.ndarray:
    """counts behind a first column that brings every row's sum to total."""
    return np.concatenate([total - counts.sum(axis=-1, keepdims=True), counts], axis=-1)


def _derivative_tables(f: VBF, alphas: Sequence[int]) -> np.ndarray:
    """D[h, x, y] over x, y in alphas[h]-orthogonal, both in the coordinates
    of hyperplane_basis(alphas[h])."""
    v = _restricted_values(f, [(alpha, "linear") for alpha in alphas])
    xs = np.arange(v.shape[1])
    return derivative(v, (xs.size * np.arange(len(v)))[:, None, None] + xs[:, None], xs)


def _quadratic_columns(f: VBF, alphas: np.ndarray, pairs: np.ndarray,
                       half: np.ndarray) -> tuple[Columns, Columns]:
    """((dvals, ddt), (wvals, walsh)): ddt[h, beta - 1, j] DDT cells a != 0
    of trim beta of hyperplane alphas[h] equal to dvals[j], and walsh[h,
    beta - 1, j] |Walsh| values of its components equal to wvals[j], for
    beta = 1 .. 2^n - 1, from the tables _pair_counts and
    _restricted_ranks."""
    n = f.n
    k = n - 1
    size = 1 << k
    total = size * (size - 1)       # DDT cells a != 0; |Walsh| values v != 0
    # per_k[h, beta - 1, j - 1] rows a != 0 with K = 2^j, each with 2^k / K
    # cells K
    per_k = np.zeros((alphas.size, (1 << n) - 1, k), dtype=np.int64)
    npairs = pairs[alphas]
    pure = npairs[:, 0] == 3 * size - 2                  # every K is 2 or 4
    fours = npairs[pure, 1:] >> 1
    per_k[pure, :, :2] = np.stack([size - 1 - fours, fours], axis=-1)[..., :k]
    impure = np.flatnonzero(~pure)
    if impure.size:
        d = _derivative_tables(f, alphas[impure].tolist())
        c = _row_hists(d.reshape(-1, size), 1 << n).reshape(impure.size, size, 1 << n)
        kern = np.log2(c[:, 1:, :1] + c[:, 1:, 1:]).astype(np.int64)   # (h, a != 0, beta)
        per_k[impure] = _row_hists(kern.transpose(0, 2, 1).reshape(-1, size - 1),
                                   k + 1)[:, 1:].reshape(impure.size, -1, k)
    j = np.arange(1, k + 1)
    ddt = _zeros_first(per_k * (size >> j), total)
    # comps[h, i, beta - 1] = #{v != 0 : v.beta = 0, half[h, v] = r[i]}, the
    # components of trim beta with rho = 2r, for every beta at once by one
    # Hadamard transform; such a component has |Walsh| 2^(k - r) on 4^r points
    r = np.arange(k // 2, -1, -1)
    comps = _sums_over_orthogonal(half[alphas][:, None, :] == r[:, None])[:, :, 1:]
    walsh = _zeros_first(comps.transpose(0, 2, 1) << 2 * r, total)
    return (np.append(0, 1 << j), ddt), (np.append(0, size >> r), walsh)


def _quadratic_keys(f: VBF, alphas: Sequence[int], sides: Sequence[str],
                    pairs: np.ndarray, half: np.ndarray) -> list[bytes]:
    """Keys of the trims (alpha, side, beta) of a function of degree <= 2,
    beta = 1 .. 2^n - 1, for each alpha of ``alphas`` on each side of
    ``sides`` in turn, from the tables _pair_counts and _restricted_ranks:
    the affine side repeats the keys of the linear one."""
    alphas = np.asarray(alphas, dtype=np.int64)
    (dvals, ddt), (wvals, walsh) = _quadratic_columns(f, alphas, pairs, half)
    degrees = np.where(walsh[..., 1:-1].any(axis=-1), 2, 1)    # 2 iff a component has rho > 0
    keys = _trim_keys(f, [(alpha, "linear") for alpha in alphas.tolist()],
                      (dvals, ddt), (wvals, walsh), degrees)
    return keys * len(sides)


def _quadratic_apn_trims(pairs: np.ndarray) -> Iterator[tuple[int, str, int]]:
    """The trims (alpha, side, beta) the kernel claims APN for a function of
    degree <= 2, in ascending order, from its table _pair_counts, read in
    one gather. Only the linear side is claimed: an affine-side trim is its
    linear twin plus an affine map, so it repeats the twin's signature."""
    size = pairs.shape[0]
    pure = np.flatnonzero(pairs[:, 0] == 3 * (size >> 1) - 2)
    rows, betas = np.nonzero(pairs[pure] == 0)
    return ((alpha, "linear", beta) for alpha, beta in zip(pure[rows].tolist(), betas.tolist()))


# ---------------------------------------------------------------------------
# trims of any function, read off the Walsh table of F
# ---------------------------------------------------------------------------
#
# Let H = epsilon + alpha-orthogonal (k = n - 1) and T = P o F|H, where P is
# linear with kernel {0, beta}. With W[v, u] the signed Walsh table of F and
# u over the 2^k points with alpha's lowest bit clear, F|H has the Walsh
# rows W_H(u, v) = (W[v, u] +- W[v, u + alpha]) / 2, + on the linear side,
# - on the affine side (up to signs that |W_H| and W_H^4 do not see):
#   - The components of T are v.F|H for v != 0 orthogonal to beta, each
#     once, so its |Walsh| histogram sums those of the rows v of W_H.
#   - With M4[v] = sum_u W_H(u, v)^4 and delta[a, c] = #{x in H : F(x + a) +
#     F(x) = c}, S(beta) = 2^-2k sum of M4[v] over v != 0 orthogonal to beta
#     is S2, the sum of the squared DDT cells a != 0 of T, for beta != 0 and
#     4^k + 2 sum of delta[a, c]^2 over a != 0 for beta = 0. M4 <= 2^4k is
#     kept as M4 / 2^k, so every sum is exact in int64 up to n = 12.
#   - DDT cells are even and sum to S1 = 2^k (2^k - 1), so T is APN iff S2 =
#     2 S1. A side is pure, every delta[a, c] 0 or 2 (as on every side of an
#     APN F), iff S(0) = 4^k + 4 S1; then the cells of T are 0, 2 and 4, n4 =
#     (S2 - 2 S1) / 8 of them 4 and n2 = (S1 - 4 n4) / 2 of them 2.
#   - On an impure side, DDT cell (a, b) of T is delta[a, c] + delta[a, c +
#     beta] with {c, c + beta} = P^-1(b); the (a, c) with delta[a, c] = s and
#     delta[a, c + beta] = t are counted by XOR correlations, exact in int64.
#   - deg T is the largest weight of a monomial of F|H whose ANF word is
#     neither 0 nor beta, as the ANF of T is P applied to those words.
# Only APN trims of degree 2 are built as tables, for their ortho spectra.

def _trim_ddt_counts(v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, counts): counts[h, beta - 1, j] DDT cells a != 0 of trim
    beta of hyperplane h equal to values[j], for beta = 1 .. 2^n - 1, from
    the values v[h] of F on each hyperplane. The values are those of the
    whole stack; a value that one hyperplane lacks has an all-zero
    indicator there, so its pairs count nothing."""
    H, size = v.shape
    seen = np.zeros(size + 1, dtype=bool)
    for _, delta in _ddt_blocks(v, n):
        seen[delta] = True
    vals = np.flatnonzero(seen)                   # vals[0] = 0: rows have zeros
    m = vals.size
    # prod[h, c, s, t] = sum_a WHT(S_a)(c) WHT(T_a)(c), S_a and T_a the
    # indicators of delta[a, .] = s and = t, for the values s, t != 0 (the
    # pairs with a 0 are what theirs leave); each transform is at most 2^n
    # in magnitude, so every partial sum stays below 2^(3n - 1)
    prod = np.zeros((H, 1 << n, m - 1, m - 1), dtype=np.int64)
    for _, delta in _ddt_blocks(v, n, row_cells=m << n):
        spec = _fwht((delta[:, :, None, :] == vals[1:, None]).astype(np.int32))
        prod += np.einsum("hasc,hatc->hcst", spec, spec, dtype=np.int64)
    # pairs[h, s, t, beta] = #{(a, c) : delta[a, c] = vals[s], delta[a, c +
    # beta] = vals[t]}; value t occurs pairs[h, t, t, 0] times in all
    pairs = np.empty((H, m, m, 1 << n), dtype=np.int64)
    pairs[:, 1:, 1:] = _fwht(np.ascontiguousarray(prod.transpose(0, 2, 3, 1))) >> n
    occurs = np.diagonal(pairs[:, 1:, 1:, 0], axis1=1, axis2=2)
    pairs[:, 0, 1:] = occurs[:, :, None] - pairs[:, 1:, 1:].sum(axis=1)
    pairs[:, 1:, 0] = pairs[:, 0, 1:]
    pairs[:, 0, 0] = ((size - 1) << n) - occurs.sum(axis=1)[:, None] - pairs[:, 0, 1:].sum(axis=1)
    sums, pair = np.unique(vals[:, None] + vals[None, :], return_inverse=True)
    to_sum = (pair.reshape(-1, 1) == np.arange(sums.size)).astype(np.int64)
    counts = (pairs.reshape(H, m * m, 1 << n).transpose(0, 2, 1) @ to_sum) >> 1
    return sums, counts[:, 1:]


def _side_moments(w: np.ndarray, alphas: Sequence[int], n: int) -> tuple[Columns, np.ndarray]:
    """((values, counts), s2) of the sides product(alphas, SIDES), row h each,
    from the Walsh table w[v, u] of F: counts[h, beta - 1, j] |Walsh| values
    of trim beta equal to values[j], and s2[h, beta] = S(beta). W_H is taken
    in blocks of rows v under _BATCH_CELL_LIMIT; row v = 0 counts nothing."""
    k = n - 1
    width = (1 << (k - 1)) + 1                          # |W_H| / 2: W_H is even
    alpha = np.asarray(alphas, dtype=np.int64)[:, None]
    u = _embedded_points(alpha, n) & ~(alpha & -alpha)   # alpha's lowest bit clear
    hists = np.empty((1 << n, 2 * alpha.size, width), dtype=np.int32)
    for lo, hi in _row_chunks(0, 1 << n, alpha.size << n):
        a, b = w[lo:hi, u], w[lo:hi, u ^ alpha]         # (v, alpha, u)
        wh = np.empty((hi - lo, alpha.size, 2, 1 << k), dtype=w.dtype)
        np.abs(np.add(a, b, out=wh[:, :, 0]), out=wh[:, :, 0])
        np.abs(np.subtract(a, b, out=wh[:, :, 1]), out=wh[:, :, 1])
        wh >>= 2
        hists[lo:hi] = _row_hists(wh.reshape(-1, 1 << k), width).reshape(hi - lo, -1, width)
    hists = hists.transpose(1, 0, 2)                    # (h, v, |W_H| / 2)
    vals = np.flatnonzero(hists.any(axis=(0, 1)))
    cols = hists[:, :, vals].astype(np.int64)
    # one transform for the |Walsh| columns and M4 / 2^k, the last column
    sums = _sums_over_orthogonal(np.dstack([cols, (cols @ vals ** 4 << 4) >> k]).transpose(0, 2, 1))
    return (2 * vals, sums[:, :-1, 1:].transpose(0, 2, 1)), sums[:, -1] >> k


def _on_values(vals, counts: np.ndarray, to: np.ndarray) -> np.ndarray:
    """counts (last axis over the values vals) widened to the values ``to``."""
    out = np.zeros(counts.shape[:-1] + (to.size,), dtype=np.int64)
    out[..., np.searchsorted(to, vals)] = counts
    return out


def _general_columns(f: VBF, w: np.ndarray, alphas: Sequence[int]) -> tuple[Columns, Columns]:
    """((dvals, ddt), (wvals, walsh)) of the sides product(alphas, SIDES), as
    _trim_ddt_counts and _side_moments give them, from the Walsh table w of
    F; only impure sides go through _trim_ddt_counts."""
    k = f.n - 1
    s1 = (1 << k) * ((1 << k) - 1)
    walsh_cols, s2 = _side_moments(w, alphas, f.n)
    fours = (s2[:, 1:] - 2 * s1) >> 3                # n0 = S1 / 2 + n4 on pure sides
    dvals = np.array([0, 2, 4])
    ddt = np.stack([(s1 >> 1) + fours, (s1 >> 1) - 2 * fours, fours], axis=-1)
    impure = np.flatnonzero(s2[:, 0] != (1 << 2 * k) + 4 * s1)
    if impure.size:
        sides = list(product(alphas, SIDES))
        ivals, icounts = _trim_ddt_counts(_restricted_values(f, [sides[h] for h in impure]), f.n)
        dvals, pure = np.union1d(dvals, ivals), dvals
        ddt = _on_values(pure, ddt, dvals)
        ddt[impure] = _on_values(ivals, icounts, dvals)
    return (dvals, ddt), walsh_cols


def _general_keys(f: VBF, w: np.ndarray, alphas: Sequence[int]) -> list[bytes]:
    """Keys of the trims (alpha, side, beta), (alpha, side) in product(alphas,
    SIDES) and beta = 1 .. 2^n - 1, in that order, from the Walsh table w."""
    hyperplanes = list(product(alphas, SIDES))
    v = _restricted_values(f, hyperplanes)
    return _trim_keys(f, hyperplanes, *_general_columns(f, w, alphas), _trim_degrees(v, f.n))


def _general_apn_trims(f: VBF) -> Iterator[tuple[int, str, int]]:
    """The trims (alpha, side, beta) the kernel claims APN for any function,
    in ascending order, one stack of hyperplanes (vbf._stacks) at a time as
    the caller reaches it: those with S2(beta) = 2 S1."""
    n = f.n
    w = walsh(f)
    alphas = range(1, 1 << n)
    for lo, hi in _stacks(len(alphas), 1 << (2 * n)):
        apn = _side_moments(w, alphas[lo:hi], n)[1][:, 1:] == (1 << n) * ((1 << (n - 1)) - 1)
        for h, row in zip(product(alphas[lo:hi], SIDES), apn):
            yield from ((*h, beta) for beta in (np.flatnonzero(row) + 1).tolist())


def _apn_claims(f: VBF) -> Iterator[tuple[int, str, int]]:
    """The trims (alpha, side, beta) the kernel for f's degree claims APN."""
    if f.degree > 2:
        return _general_apn_trims(f)
    return _quadratic_apn_trims(_pair_counts(f))


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


def _spectrum_share(table: np.ndarray, n: int, alphas: Sequence[int],
                    quadratic_reduced: bool) -> Counter:
    """Key counts (ortho.signature_keys) of the trims on the hyperplanes
    ``alphas`` and, unless quadratic_reduced, their complements; the
    picklable worker of trim_spectrum. The hyperplanes go through the
    kernels in stacks (vbf._stacks) of 2^(2n - 1) DDT cells per side, read
    off whole-space tables: a function of degree <= 2 stacks hyperplanes
    alpha, 8 at n = 7, one of degree > 2 both sides of each, 4 alpha at n =
    7. Taller stacks ran slower."""
    f = VBF(n, n, table)
    sides = ("linear",) if quadratic_reduced else SIDES
    counts: Counter = Counter()
    if f.degree <= 2:
        pairs = _pair_counts(f)
        half = _restricted_ranks(pairs, n)
        for lo, hi in _stacks(len(alphas), 1 << (2 * n - 1)):
            counts.update(_quadratic_keys(f, alphas[lo:hi], sides, pairs, half))
        return counts
    w = walsh(f)
    for lo, hi in _stacks(len(alphas), 1 << (2 * n)):
        counts.update(_general_keys(f, w, alphas[lo:hi]))
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
    keys: Counter = Counter()
    for share in shares:
        keys.update(share)
    # each distinct key is decoded once; keys that differ only in values
    # counted 0 times stand for the same signature
    counts: Counter = Counter()
    for key, count in keys.items():
        counts[signature_of_key(key)] += count
    return TrimSpectrum(f.n, quadratic_reduced, dict(counts))


def _iter_apn_trims(f: VBF, trims: Sequence[tuple[int, str, int]]
                    ) -> Iterator[tuple[TrimDescriptor, np.ndarray, InvariantSignature]]:
    """The claimed APN trims (alpha, side, beta) ``trims`` in their order,
    with table rows and signatures, built and classified by table together.
    A claimed trim whose table is not APN is an internal error."""
    if not trims:
        return
    tabs = _canonical_tables(f, trims)
    sigs = signatures_of_tables(tabs, f.n - 1)
    bad = [t for t, sig in zip(trims, sigs) if not sig.apn]
    if bad:
        raise RuntimeError(f"kernel claims the trim {bad[0]} APN, but its table is not")
    for (alpha, side, beta), tab, sig in zip(trims, tabs, sigs):
        yield TrimDescriptor.canonical(alpha, side, beta), tab, sig


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
        hyperplanes = groupby(_apn_claims(g), key=itemgetter(0))
        trims = (t for _, group in hyperplanes for t in _iter_apn_trims(g, list(group)))
        for _, tab, sig in trims:
            if sig in failed[k - 1]:
                continue
            t = VBF(k - 1, k - 1, tab)
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
