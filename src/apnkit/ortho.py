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
from typing import Callable, Optional

import numpy as np

from . import gf2, vbf as vbf_mod
from .gf2 import FieldSpec
from .vbf import VBF, Spectrum, _batch_walsh_hists, _spectrum

# (values, counts): counts[b, j] entries of function b equal to values[j]
Columns = tuple[np.ndarray, np.ndarray]


def ortho_derivative(g: VBF) -> VBF:
    """The ortho-derivative of a quadratic APN function under the bit inner
    product; the trace-pairing normal w maps to it as S w, S = trace_gram."""
    if g.n != g.m:
        raise ValueError("ortho-derivative requires n = m")
    if g.degree > 2:
        raise ValueError("ortho-derivative requires a quadratic function")
    return _ortho_cached(g)


@lru_cache(maxsize=128)
def _ortho_cached(g: VBF) -> VBF:
    return VBF(g.n, g.n, _ortho_derivatives(g.table[None, :], g.n)[0])


def _ortho_derivatives(tabs: np.ndarray, k: int) -> np.ndarray:
    """The ortho-derivatives of a stack of k-bit quadratic APN tables (shape
    (B, 2^k)), one row each, computed in chunks of rows (table, a != 0)
    under _BATCH_CELL_LIMIT."""
    B, size = tabs.shape
    shifts = np.arange(k, dtype=np.uint16)
    pi = np.zeros(B * size, dtype=np.uint16)
    for lo, hi in vbf_mod._row_chunks(0, B * (size - 1), size + k * k):
        # the chunk's rows (table t, a != 0), as indices into the flat stack
        t, a = np.divmod(np.arange(lo, hi), size - 1)
        rows = t * size + a + 1
        # b[r, j] = B_a(e_j) of table t
        b = vbf_mod.derivative(tabs, rows[:, None], 1 << np.arange(k))
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
    powers = gf2._primitive_powers(spec)
    tab = np.zeros(1 << n, dtype=np.uint16)
    tab[powers] = powers[-np.arange(order) * ((1 << i) + 1) % order]
    return VBF(n, n, tab)


# ---------------------------------------------------------------------------
# invariant signatures
# ---------------------------------------------------------------------------

def spectrum_str(s: Optional[Spectrum]) -> str:
    """A spectrum as "[(value,count)...]", or "-" for None."""
    if s is None:
        return "-"
    return "[" + "".join(f"({v},{c})" for v, c in s) + "]"


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
        return ("sig{deg=%d;apn=%d;ds=%s;ews=%s;ods=%s;oews=%s}"
                % (self.degree, int(self.apn),
                   spectrum_str(self.diff_spectrum), spectrum_str(self.walsh_spectrum),
                   spectrum_str(self.ortho_diff_spectrum),
                   spectrum_str(self.ortho_walsh_spectrum)))

    def key64(self) -> str:
        """Stable 64-bit hex key of the canonical serialization."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def signature_keys(k: int, degrees: np.ndarray, ddt: Columns, walsh: Columns,
                   tables: Optional[Callable[[np.ndarray], np.ndarray]]) -> list[bytes]:
    """Keys of k-bit functions b = 0 .. B - 1 from their histogram columns:
    ddt = (values, counts) with counts[b, j] DDT cells a != 0 equal to
    values[j], walsh the same for |Walsh| values over beta != 0, both with
    ascending values, and degrees[b]. The ortho spectra of the rows that
    are APN of degree 2 come from tables(rows), the tables of those rows,
    taken in stacks (None when there are no such rows); a table that is not
    quadratic APN there is an internal error.

    A key is the int64 words (degree, #ddt values, #walsh values, ddt
    values, walsh values, ddt counts, walsh counts), followed for a quadratic
    APN function by its ortho-derivative's DDT and |Walsh| histograms;
    signature_of_key decodes it. Keys of equal signatures differ at most in
    values whose count is 0."""
    (dvals, dcounts), (wvals, wcounts) = ddt, walsh
    head = np.concatenate([[dvals.size, wvals.size], dvals, wvals])
    rows = np.empty((degrees.size, 1 + head.size + dvals.size + wvals.size), dtype=np.int64)
    rows[:, 0] = degrees
    rows[:, 1:1 + head.size] = head
    rows[:, 1 + head.size:] = np.hstack([dcounts, wcounts])
    keys = rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel().tolist()
    quad = np.flatnonzero(~dcounts[:, dvals > 2].any(axis=1) & (degrees == 2))
    for lo, hi in vbf_mod._stacks(quad.size, 1 << (2 * k)):
        try:
            pis = _ortho_derivatives(tables(quad[lo:hi]), k)
        except ValueError as exc:
            raise RuntimeError("a function classified as quadratic APN "
                               "has a table that is not") from exc
        hists = np.hstack([vbf_mod._diff_counts_batch(pis, k),
                           _batch_walsh_hists(pis, k)]).astype(np.int64)
        for b, h in zip(quad[lo:hi].tolist(), hists):
            keys[b] += h.tobytes()
    return keys


def signature_of_key(key: bytes) -> InvariantSignature:
    """The signature a key of signature_keys stands for."""
    words = np.frombuffer(key, dtype=np.int64)
    degree, dv, wv = words[:3].tolist()
    vals, counts = words[3:3 + dv + wv], words[3 + dv + wv:]
    ds = _spectrum(counts[:dv], vals[:dv])
    ews = _spectrum(counts[dv:dv + wv], vals[dv:])
    ortho = counts[dv + wv:]
    ods, oews = map(_spectrum, np.split(ortho, 2)) if ortho.size else (None, None)
    return InvariantSignature(degree, ds[-1][0] <= 2, ds, ews, ods, oews)


def _columns(hists: np.ndarray) -> Columns:
    """(values, counts) of the columns of ``hists`` that are not all zero."""
    values = np.flatnonzero(hists.any(axis=0))
    return values, hists[:, values]


def signatures_of_tables(tabs: np.ndarray, k: int) -> list[InvariantSignature]:
    """Signatures for a batch of k-bit tables (shape (B, 2^k)), keyed in
    stacks; each distinct key is decoded once."""
    keys = []
    for lo, hi in vbf_mod._stacks(tabs.shape[0], 1 << (2 * k)):
        stack = tabs[lo:hi]
        keys += signature_keys(
            k, vbf_mod._degree_of_tables(stack, k),
            _columns(vbf_mod._diff_counts_batch(stack, k)),
            _columns(_batch_walsh_hists(stack, k)), stack.__getitem__)
    memo = {key: signature_of_key(key) for key in set(keys)}
    return [memo[key] for key in keys]


def invariant_signature(f: VBF) -> InvariantSignature:
    if f.n != f.m:
        raise ValueError("invariant signature requires n = m")
    return signatures_of_tables(f.table[None, :], f.n)[0]
