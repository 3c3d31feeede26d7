"""Ortho-derivatives of quadratic APN functions and invariant signatures.

For a quadratic APN function G the image of every linearized derivative
B_a(x) = G(x) + G(x+a) + G(a) + G(0), a != 0, is a hyperplane; the
ortho-derivative pi_G maps a to the unique nonzero normal of that
hyperplane (and 0 to 0). Its differential and extended Walsh spectra,
together with those of G itself, form the signature used throughout as
the EA-equivalence fingerprint.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import gf2, vbf as vbf_mod
from .gf2 import FieldSpec, GF2Matrix
from .vbf import _PAR16, VBF

Spectrum = tuple[tuple[int, int], ...]

# candidate-matrix batch path is quadratic in table size; loop above this width
_BATCH_MAX_N = 10


def _derivative_basis_images(g: VBF, gram_lut: Optional[np.ndarray]) -> np.ndarray:
    """B[a, j] = value of the derivative map B_a at the unit vector e_j."""
    n = g.n
    tab = g.table
    alphas = np.arange(1 << n, dtype=np.uint32)
    units = np.uint32(1) << np.arange(n, dtype=np.uint32)
    b = (tab[alphas[:, None] ^ units[None, :]]
         ^ tab[alphas][:, None] ^ tab[units][None, :] ^ tab[0])
    if gram_lut is not None:
        b = gram_lut[b]
    return b


def ortho_derivative(g: VBF, gram: Optional[GF2Matrix] = None) -> VBF:
    """The ortho-derivative of a quadratic APN function.

    ``gram`` selects the bilinear form: None means the plain bit inner
    product; passing ``gf2.trace_gram(spec)`` computes orthogonality with
    respect to Tr(u*v) on the field F_{2^n}.
    """
    if g.n != g.m:
        raise ValueError("ortho-derivative requires n = m")
    if g.degree > 2:
        raise ValueError("ortho-derivative requires a quadratic function")
    return _ortho_cached(g, gram)


@lru_cache(maxsize=128)
def _ortho_cached(g: VBF, gram: Optional[GF2Matrix]) -> VBF:
    n = g.n
    gram_lut = None
    if gram is not None:
        if gram.nrows != n or gram.ncols != n:
            raise ValueError("gram matrix must be n x n")
        gram_lut = np.array(gram.lut(), dtype=np.uint16)
    b = _derivative_basis_images(g, gram_lut)
    if n <= _BATCH_MAX_N:
        ws = np.arange(1, 1 << n, dtype=np.uint16)
        nonorth = _PAR16[b[:, :, None] & ws[None, None, :]].any(axis=1)
        ok = ~nonorth
        counts = ok[1:].sum(axis=1)
        if not (counts == 1).all():
            raise ValueError("not APN: derivative images are not hyperplanes")
        pi = np.zeros(1 << n, dtype=np.uint16)
        pi[1:] = ws[np.argmax(ok[1:], axis=1)]
        return VBF(n, n, pi)
    # the kernel of the n x n system with rows b[a] is {0, pi(a)}
    pi = np.zeros(1 << n, dtype=np.uint16)
    for lo, hi in vbf_mod._row_chunks(1, 1 << n, n * (n + 1)):
        spaces = gf2.solve_affine_batch(b[lo:hi, :, None], n)
        for a, space in enumerate(spaces, lo):
            if len(space.basis) != 1:
                raise ValueError("not APN: derivative images are not hyperplanes")
            pi[a] = space.basis[0]
    return VBF(n, n, pi)


def gold_ortho(spec: FieldSpec, i: int = 1) -> VBF:
    """Closed-form ortho-derivative x -> x^-(2^i+1) of the Gold function
    x -> x^(2^i+1), valid under the trace pairing for odd n, gcd(i, n) = 1."""
    n = spec.n
    if n % 2 == 0 or math.gcd(i, n) != 1:
        raise ValueError("Gold function is not APN for these parameters")
    order = (1 << n) - 1
    e = (order - (((1 << i) + 1) % order)) % order
    tab = np.zeros(1 << n, dtype=np.uint16)
    for x in range(1, 1 << n):
        tab[x] = gf2.field_pow(spec, x, e)
    return VBF(n, n, tab)


# ---------------------------------------------------------------------------
# invariant signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantSignature:
    """Canonical EA-invariant fingerprint of a function with n = m.

    The ortho spectra are present exactly when the function is quadratic
    APN; spectra are sorted by value so equal signatures serialize to
    identical strings.
    """

    degree: int
    apn: bool
    diff_spectrum: Spectrum
    walsh_spectrum: Spectrum
    ortho_diff_spectrum: Optional[Spectrum]
    ortho_walsh_spectrum: Optional[Spectrum]

    def canonical(self) -> str:
        def spec_str(s: Optional[Spectrum]) -> str:
            if s is None:
                return "-"
            return "[" + "".join(f"({v},{c})" for v, c in s) + "]"

        return ("sig{deg=%d;apn=%d;ds=%s;ews=%s;ods=%s;oews=%s}"
                % (self.degree, int(self.apn),
                   spec_str(self.diff_spectrum), spec_str(self.walsh_spectrum),
                   spec_str(self.ortho_diff_spectrum),
                   spec_str(self.ortho_walsh_spectrum)))

    def key64(self) -> str:
        """Stable 64-bit hex key of the canonical serialization."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _spectrum_from_hist(hist: np.ndarray) -> Spectrum:
    nz = np.nonzero(hist)[0]
    return tuple((int(v), int(hist[v])) for v in nz)


def signatures_of_tables(tabs: np.ndarray, k: int,
                         only_apn: bool = False) -> list[Optional[InvariantSignature]]:
    """Signatures for a batch of k-bit tables (shape (B, 2^k)).

    With ``only_apn`` every non-APN row yields None; this is the fast path
    behind trim enumeration.
    """
    B = tabs.shape[0]
    # keep the intermediate (B, 2^k, 2^k) arrays bounded
    chunk = max(1, (1 << 24) >> (2 * k))
    if B > chunk:
        out: list[Optional[InvariantSignature]] = []
        for lo in range(0, B, chunk):
            out.extend(signatures_of_tables(tabs[lo:lo + chunk], k, only_apn))
        return out
    diff_hists = vbf_mod._diff_counts_batch(tabs, k, k)
    apn_flags = [bool((h[3:] == 0).all()) for h in diff_hists]

    keep = [b for b in range(B) if apn_flags[b]] if only_apn else list(range(B))
    if not keep:
        return [None] * B
    sel = tabs[keep] if len(keep) != B else tabs
    degs = vbf_mod._degree_of_tables(sel, k)
    ews_hists = _batch_walsh_hists(sel, k)

    out: list[Optional[InvariantSignature]] = [None] * B
    for pos, b in enumerate(keep):
        ds = _spectrum_from_hist(diff_hists[b])
        ews = _spectrum_from_hist(ews_hists[pos])
        deg = int(degs[pos])
        ods = oews = None
        if apn_flags[b] and deg == 2:
            pi = _ortho_cached(VBF(k, k, tabs[b]), None)
            ods = vbf_mod.differential_spectrum(pi)
            oews = vbf_mod.extended_walsh_spectrum(pi)
        out[b] = InvariantSignature(deg, apn_flags[b], ds, ews, ods, oews)
    return out


def _batch_walsh_hists(tabs: np.ndarray, k: int) -> np.ndarray:
    """Histogram of |Walsh| values over beta != 0, one row per table."""
    B, size = tabs.shape
    betas = np.arange(1, size, dtype=np.uint16)
    par = _PAR16[betas[None, :, None] & tabs[:, None, :]]
    signs = 1 - 2 * par.astype(np.int32)
    w = np.abs(vbf_mod._fwht(signs))
    keys = (np.arange(B, dtype=np.int64)[:, None, None] * (size + 1) + w)
    hists = np.bincount(keys.ravel(), minlength=B * (size + 1))
    return hists.reshape(B, size + 1)


def invariant_signature(f: VBF) -> InvariantSignature:
    if f.n != f.m:
        raise ValueError("invariant signature requires n = m")
    return signatures_of_tables(f.table[None, :], f.n)[0]
