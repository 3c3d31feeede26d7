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
from .vbf import _PAR16, VBF, _batch_walsh_hists, _spectrum_from_hist

Spectrum = tuple[tuple[int, int], ...]

# candidate-matrix batch path is quadratic in table size; loop above this width
_BATCH_MAX_N = 10


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
    # b[a, j] = B_a(e_j)
    units = 1 << np.arange(n)
    b = vbf_mod.derivative(g.table, np.arange(1 << n)[:, None], units)
    if gram_lut is not None:
        b = gram_lut[b]
    pi = np.zeros(1 << n, dtype=np.uint16)
    if n <= _BATCH_MAX_N:
        # ok[a, w] = w is orthogonal to every B_a(e_j)
        ws = np.arange(1, 1 << n, dtype=np.uint16)
        for lo, hi in vbf_mod._row_chunks(1, 1 << n, n << n):
            ok = ~_PAR16[b[lo:hi, :, None] & ws].any(axis=1)
            if not (ok.sum(axis=1) == 1).all():
                raise ValueError("not APN: derivative images are not hyperplanes")
            pi[lo:hi] = ws[np.argmax(ok, axis=1)]
        return VBF(n, n, pi)
    # the kernel of the n x n system with rows b[a] is {0, pi(a)}
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


def signatures_of_tables(tabs: np.ndarray, k: int) -> list[InvariantSignature]:
    """Signatures for a batch of k-bit tables (shape (B, 2^k))."""
    B = tabs.shape[0]
    # keep the intermediate (B, 2^k, 2^k) arrays bounded
    chunks = list(vbf_mod._row_chunks(0, B, 1 << (2 * k)))
    if len(chunks) != 1:
        return [sig for lo, hi in chunks
                for sig in signatures_of_tables(tabs[lo:hi], k)]
    diff_hists = vbf_mod._diff_counts_batch(tabs, k, k)
    degs = vbf_mod._degree_of_tables(tabs, k)
    ews_hists = _batch_walsh_hists(tabs, k)
    out = []
    for tab, dh, wh, deg in zip(tabs, diff_hists, ews_hists, degs.tolist()):
        apn = bool((dh[3:] == 0).all())
        ods = oews = None
        if apn and deg == 2:
            pi = _ortho_cached(VBF(k, k, tab), None)
            ods = vbf_mod.differential_spectrum(pi)
            oews = vbf_mod.extended_walsh_spectrum(pi)
        out.append(InvariantSignature(deg, apn, _spectrum_from_hist(dh),
                                      _spectrum_from_hist(wh), ods, oews))
    return out


def invariant_signature(f: VBF) -> InvariantSignature:
    if f.n != f.m:
        raise ValueError("invariant signature requires n = m")
    return signatures_of_tables(f.table[None, :], f.n)[0]
