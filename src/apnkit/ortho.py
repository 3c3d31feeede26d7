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
from .vbf import VBF, _batch_walsh_hists, _spectrum_from_hist

Spectrum = tuple[tuple[int, int], ...]


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
    return VBF(n, n, _ortho_derivatives(g.table[None, :], n, gram_lut)[0])


def _ortho_derivatives(tabs: np.ndarray, k: int,
                       gram_lut: Optional[np.ndarray] = None) -> np.ndarray:
    """The ortho-derivatives of a stack of k-bit quadratic APN tables (shape
    (B, 2^k)), one row each, computed in chunks of rows (table, a != 0)
    under _BATCH_CELL_LIMIT. ``gram_lut`` maps each B_a(e_j) through the
    Gram matrix of the pairing before orthogonality is taken."""
    B, size = tabs.shape
    shifts = np.arange(k, dtype=np.uint16)
    pi = np.zeros(B * size, dtype=np.uint16)
    for lo, hi in vbf_mod._row_chunks(0, B * (size - 1), size + k * k):
        # the chunk's rows (table t, a != 0), as indices into the flat stack
        t, a = np.divmod(np.arange(lo, hi), size - 1)
        rows = t * size + a + 1
        # b[r, j] = B_a(e_j) of table t
        b = vbf_mod.derivative(tabs, rows[:, None], 1 << np.arange(k))
        if gram_lut is not None:
            b = gram_lut[b]
        # cols[r, i] packs bit i of every b[r, j], so span[r, w], the XOR of
        # cols[r, i] over the bits i of w, is 0 iff w is orthogonal to every
        # b[r, j]: to the image of B_a
        bits = (b[:, None, :] >> shifts[:, None]) & 1
        cols = (bits << shifts).sum(axis=2, dtype=np.uint16)
        normal = gf2.span(cols)[:, 1:] == 0
        if (normal.sum(axis=1) != 1).any():
            raise ValueError("not APN: derivative images are not hyperplanes")
        pi[rows] = np.argmax(normal, axis=1) + 1
    return pi.reshape(B, size)


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
    """Signatures for a batch of k-bit tables (shape (B, 2^k)), classified in
    stacks of at most _BATCH_CELL_LIMIT / 2^8 DDT cells: larger stacks run
    no faster and only grow the temporaries."""
    B = tabs.shape[0]
    chunks = list(vbf_mod._row_chunks(0, B, 1 << (2 * k + 8)))
    if len(chunks) != 1:
        return [sig for lo, hi in chunks
                for sig in signatures_of_tables(tabs[lo:hi], k)]
    degs = vbf_mod._degree_of_tables(tabs, k)
    # hists[b] = DDT, |Walsh|, ortho DDT and ortho |Walsh| histograms of
    # table b; the ortho rows stay -1 unless the table is quadratic APN
    hists = np.full((B, 4, (1 << k) + 1), -1, dtype=np.int64)
    hists[:, 0] = vbf_mod._diff_counts_batch(tabs, k, k)
    hists[:, 1] = _batch_walsh_hists(tabs, k)
    quad = np.flatnonzero((hists[:, 0, 3:] == 0).all(axis=1) & (degs == 2))
    if quad.size:
        pis = _ortho_derivatives(tabs[quad], k)
        hists[quad, 2] = vbf_mod._diff_counts_batch(pis, k, k)
        hists[quad, 3] = _batch_walsh_hists(pis, k)
    memo: dict[tuple, InvariantSignature] = {}
    out = []
    for row, deg in zip(hists, degs.tolist()):
        key = (row.tobytes(), deg)
        if key not in memo:
            ds, ews, ods, oews = (_spectrum_from_hist(h) if h[0] >= 0 else None for h in row)
            memo[key] = InvariantSignature(deg, ds[-1][0] <= 2, ds, ews, ods, oews)
        out.append(memo[key])
    return out


def invariant_signature(f: VBF) -> InvariantSignature:
    if f.n != f.m:
        raise ValueError("invariant signature requires n = m")
    return signatures_of_tables(f.table[None, :], f.n)[0]
