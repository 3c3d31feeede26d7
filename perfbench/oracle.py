"""Plain-numpy reference computations used to check the program's output.

Nothing here calls apnkit: tables are plain integer arrays, and every
quantity is computed by the textbook definition (dense DDT rows, a Walsh
matrix product, ANF by subset sums, ortho-derivatives by brute force over
normals), so a fault in the library's batched paths cannot hide in both.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

_POP = (np.unpackbits(np.arange(1 << 16, dtype=">u2").view(np.uint8))
        .reshape(-1, 16).sum(axis=1).astype(np.int64))


def parity(v: np.ndarray) -> np.ndarray:
    return _POP[v] & 1


def ddt(tab: np.ndarray, n: int, m: int) -> np.ndarray:
    """counts[a, b] = #{x : F(x) + F(x + a) = b}."""
    xs = np.arange(1 << n)
    tab = np.asarray(tab, dtype=np.int64)
    return np.stack([np.bincount(tab ^ tab[xs ^ a], minlength=1 << m)
                     for a in range(1 << n)])


def walsh(tab: np.ndarray, n: int, m: int) -> np.ndarray:
    """W[beta, alpha] = sum_x (-1)^(<beta, F(x)> + <alpha, x>), as S @ H."""
    xs = np.arange(1 << n)
    betas = np.arange(1 << m)
    tab = np.asarray(tab, dtype=np.int64)
    s = 1 - 2 * parity(betas[:, None] & tab[None, :])
    h = 1 - 2 * parity(xs[:, None] & xs[None, :])
    # in float64 the product goes to BLAS; every entry is a sum of at most
    # 2^16 terms of +-1, so it is exact
    return np.rint(s.astype(np.float64) @ h.astype(np.float64)).astype(np.int64)


def degree(tab: np.ndarray, n: int) -> int:
    """Largest weight of a monomial with a nonzero ANF coefficient; the
    coefficient of x^u is the XOR of F(x) over all x whose support lies in u."""
    xs = np.arange(1 << n)
    subset = (xs[None, :] & ~xs[:, None]) == 0       # subset[u, x]: x within u
    tab = np.asarray(tab, dtype=np.int64)
    best = 0
    for bit in range(16):
        col = (tab >> bit) & 1
        if not col.any():
            continue
        anf = (subset.astype(np.int64) @ col) & 1
        nz = np.nonzero(anf)[0]
        if nz.size:
            best = max(best, int(_POP[nz].max()))
    return best


def is_apn(tab: np.ndarray, n: int) -> bool:
    return int(ddt(tab, n, n)[1:].max()) <= 2


def ortho_derivative(tab: np.ndarray, n: int) -> np.ndarray:
    """pi(a) = the unique nonzero w orthogonal to every F(x)+F(x+a)+F(a)+F(0),
    for a quadratic APN F; raises if some a has no unique normal."""
    xs = np.arange(1 << n)
    tab = np.asarray(tab, dtype=np.int64)
    ws = np.arange(1, 1 << n)
    pi = np.zeros(1 << n, dtype=np.int64)
    for a in range(1, 1 << n):
        img = np.unique(tab ^ tab[xs ^ a] ^ tab[a] ^ tab[0])
        ok = ~parity(ws[:, None] & img[None, :]).any(axis=1)
        if ok.sum() != 1:
            raise ValueError("derivative image is not a hyperplane")
        pi[a] = ws[np.argmax(ok)]
    return pi


def _hist(values: np.ndarray) -> list[list[int]]:
    vals, counts = np.unique(values, return_counts=True)
    return [[int(v), int(c)] for v, c in zip(vals, counts)]


def signature(tab: np.ndarray, n: int) -> tuple:
    """(degree, apn, DDT spectrum, extended Walsh spectrum, and for quadratic
    APN inputs the same two spectra of the ortho-derivative), as plain
    nested tuples comparable with ``signature_of_program``."""
    d = ddt(tab, n, n)
    apn = int(d[1:].max()) <= 2
    deg = degree(tab, n)
    ds = _hist(d[1:])
    ws = _hist(np.abs(walsh(tab, n, n)[1:]))
    ods = ows = None
    if apn and deg == 2:
        pi = ortho_derivative(tab, n)
        ods = _hist(ddt(pi, n, n)[1:])
        ows = _hist(np.abs(walsh(pi, n, n)[1:]))
    return _freeze((deg, apn, ds, ws, ods, ows))


def signature_of_program(sig) -> tuple:
    """The same tuple read from an apnkit InvariantSignature."""
    def spec(s):
        return None if s is None else [[int(v), int(c)] for v, c in s]
    return _freeze((int(sig.degree), bool(sig.apn), spec(sig.diff_spectrum),
                    spec(sig.walsh_spectrum), spec(sig.ortho_diff_spectrum),
                    spec(sig.ortho_walsh_spectrum)))


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    return x


def multiset_digest(counts: dict) -> str:
    """Order-free digest of {signature tuple: multiplicity}."""
    items = sorted((json.dumps(k), v) for k, v in counts.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:24]


def linear_basis(alpha: int, n: int) -> list[int]:
    """A basis of the hyperplane {x : <alpha, x> = 0}."""
    i = alpha.bit_length() - 1                       # highest set bit of alpha
    return [(1 << j) | ((((alpha >> j) & 1)) << i) for j in range(n) if j != i]


def trim_table(tab: np.ndarray, n: int, alpha: int, eps: int,
               beta: int, gamma: int) -> np.ndarray:
    """F restricted to eps + alpha-orthogonal, projected along beta onto
    gamma-orthogonal, in coordinates given by explicit bases; any such
    choice is EA-equivalent, so signatures do not depend on it."""
    dom = linear_basis(alpha, n)
    t = np.arange(1 << (n - 1))
    pts = np.full(t.shape, eps, dtype=np.int64)
    for k, b in enumerate(dom):
        pts ^= ((t >> k) & 1) * b
    vals = np.asarray(tab, dtype=np.int64)[pts]
    vals ^= parity(vals & gamma) * beta
    # gamma-orthogonal -> F_2^(n-1): drop coordinate i, the highest set bit
    # of gamma, which the other coordinates determine on gamma-orthogonal
    i = gamma.bit_length() - 1
    low = vals & ((1 << i) - 1)
    high = (vals >> (i + 1)) << i
    return low | high


def trim_spectrum(tab: np.ndarray, n: int) -> dict:
    """Full multiset {signature: count} over all 2(2^n - 1)^2 trims."""
    counts: dict = {}
    for alpha in range(1, 1 << n):
        eps_aff = 1 << (alpha.bit_length() - 1)
        for eps in (0, eps_aff):
            for beta in range(1, 1 << n):
                gamma = 1 << (beta.bit_length() - 1)
                s = signature(trim_table(tab, n, alpha, eps, beta, gamma), n - 1)
                counts[s] = counts.get(s, 0) + 1
    return counts
