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


def _derivative_columns(tabs: np.ndarray, k: int) -> np.ndarray:
    """cols[t, a, i], bit j of which is bit i of B_a(e_j), for every table t
    of a stack of k-bit tables of degree <= 2 (shape (B, 2^k)) and every
    point a. B_a(x) is linear in a as well, so cols[t, a] is the XOR of
    cols[t, e_s] over the bits s of a: only the k^2 words B_{e_s}(e_j) of
    a table are looked up."""
    B, size = tabs.shape
    e = 1 << np.arange(k)
    # w[t, s, j] = B_{e_s}(e_j) of table t
    w = vbf_mod.derivative(tabs, (size * np.arange(B))[:, None, None] + e[:, None], e)
    shifts = np.arange(k, dtype=np.uint16)
    basis = ((w[:, None] >> shifts[:, None, None]) & 1) @ (1 << shifts)
    return gf2.span(basis).transpose(0, 2, 1)


def _orthogonal(cols: np.ndarray) -> np.ndarray:
    """orth[r, v], 1 when v is orthogonal to the image of B_a and 0 if not,
    uint8, for rows cols[r] = cols[t, a] of _derivative_columns: the XOR of
    cols[r, i] over the bits i of v packs the products <v, B_a(e_j)>. Row r
    holds 2^(k - rank B_a) = |ker B_a| ones."""
    return (gf2.span(cols) == 0).view(np.uint8)


def _ortho_derivatives(tabs: np.ndarray, k: int) -> np.ndarray:
    """The ortho-derivatives of a stack of k-bit quadratic APN tables (shape
    (B, 2^k)), one row each, computed in chunks of rows (table, a != 0)
    under _BATCH_CELL_LIMIT."""
    B, size = tabs.shape
    cols = _derivative_columns(tabs, k)[:, 1:].reshape(-1, k)      # rows (t, a != 0)
    normals = np.empty(len(cols), dtype=np.uint16)
    for lo, hi in vbf_mod._row_chunks(0, len(cols), size):
        normal = _orthogonal(cols[lo:hi])[:, 1:]
        if (normal.sum(axis=1, dtype=np.int32) != 1).any():
            raise ValueError("not APN: derivative images are not hyperplanes")
        normals[lo:hi] = np.argmax(normal, axis=1) + 1
    pi = np.zeros((B, size), dtype=np.uint16)
    pi[:, 1:] = normals.reshape(B, size - 1)
    return pi


def _quadratic_hists(tabs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ddt, walsh, pi): the DDT and |Walsh| histograms of _diff_counts_batch
    and _batch_walsh_hists for a stack of k-bit tables of degree <= 2, off
    the ranks of their linearized derivatives, and the ortho-derivative of
    each table that is APN (rows of the others mean nothing), in chunks of
    rows (table, a) under _BATCH_CELL_LIMIT:
      - DDT row a holds 2^k / z cells equal to z = |ker B_a|, the rest 0;
      - component v has |Walsh| 2^((k + d) / 2) on 2^(k - d) points, the
        rest 0, where 2^d = #{a : v orthogonal to the image of B_a} is the
        size of the radical of the alternating form v.B;
      - for an APN table z = 2 at every a != 0, and pi(a) is the one v != 0
        orthogonal to the image of B_a."""
    B, size = tabs.shape
    cols = _derivative_columns(tabs, k).reshape(B * size, k)
    kernels = np.empty(B * size, dtype=np.int32)
    radicals = np.zeros((B, size), dtype=np.int32)
    pi = np.empty(B * size, dtype=np.uint16)
    # chunks of whole tables, or parts of one table that does not fit
    for t0, t1 in vbf_mod._row_chunks(0, B, size * size):
        for lo, hi in vbf_mod._row_chunks(t0 * size, t1 * size, size):
            orth = _orthogonal(cols[lo:hi])
            kernels[lo:hi] = orth.sum(axis=1, dtype=np.int32)
            radicals[t0:t1] += orth.reshape(t1 - t0, -1, size).sum(axis=1, dtype=np.int32)
            pi[lo:hi] = np.argmax(orth[:, 1:], axis=1) + 1
    pi = pi.reshape(B, size)
    pi[:, 0] = 0
    # cells of rows a != 0 equal to |ker B_a| = 2^j, and points of
    # components v != 0 with d = j, for every j
    j = np.arange(k + 1)
    per_a, per_v = (vbf_mod._row_hists(np.bitwise_count(c[:, 1:] - 1), k + 1) * (size >> j)
                    for c in (kernels.reshape(B, size), radicals))
    ddt, walsh = (np.zeros((B, size + 1), dtype=np.int64) for _ in range(2))
    ddt[:, 1 << j] = per_a
    even = j[(k - j) % 2 == 0]      # k - d is the rank of v.B, even
    walsh[:, 1 << (k + even) // 2] = per_v[:, even]
    for hist in (ddt, walsh):
        hist[:, 0] = size * (size - 1) - hist.sum(axis=1)
    return ddt, walsh, pi


def gold_ortho(spec: FieldSpec, i: int = 1) -> VBF:
    """Closed-form ortho-derivative x -> x^-(2^i+1) of the Gold function
    x -> x^(2^i+1), valid under the trace pairing for odd n, gcd(i, n) = 1."""
    n = spec.n
    if n % 2 == 0 or math.gcd(i, n) != 1:
        raise ValueError("Gold function is not APN for these parameters")
    # the exponent lies in [1, 2^n - 1], so 0 maps to 0 also at n = 1
    order = (1 << n) - 1
    return VBF.from_univariate(spec, [(1, order - ((1 << i) + 1) % order)])


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

    The degree is the algebraic degree, but at least 1: EA-equivalence adds
    an affine map, so functions of degree 0 and 1 are one class. The ortho
    spectra are present exactly when the function is quadratic APN; spectra
    are sorted by value so equal signatures serialize to identical strings.
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
                   ortho_rows: Callable[[np.ndarray], np.ndarray]) -> list[bytes]:
    """Keys of k-bit functions b = 0 .. B - 1 from their histogram columns:
    ddt = (values, counts) with counts[b, j] DDT cells a != 0 equal to
    values[j], walsh the same for |Walsh| values over beta != 0, both with
    ascending values, and degrees[b]. The ortho spectra of the rows that
    are APN of degree 2 come from ortho_rows(rows), the ortho-derivatives
    of those rows, taken in stacks; a ValueError there, a row that is not
    quadratic APN, is an internal error.

    A key is the int64 words (max(degree, 1), #ddt values, #walsh values,
    ddt values, walsh values, ddt counts, walsh counts), followed for a
    quadratic APN function by its ortho-derivative's DDT and |Walsh|
    histograms; signature_of_key decodes it. Degree 0 and 1 share a word:
    adding an affine map makes them one EA class. Keys of equal signatures
    differ at most in values whose count is 0."""
    (dvals, dcounts), (wvals, wcounts) = ddt, walsh
    head = np.concatenate([[dvals.size, wvals.size], dvals, wvals])
    rows = np.empty((degrees.size, 1 + head.size + dvals.size + wvals.size), dtype=np.int64)
    rows[:, 0] = np.maximum(degrees, 1)
    rows[:, 1:1 + head.size] = head
    rows[:, 1 + head.size:] = np.hstack([dcounts, wcounts])
    keys = rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel().tolist()
    quad = np.flatnonzero(~dcounts[:, dvals > 2].any(axis=1) & (degrees == 2))
    for lo, hi in vbf_mod._stacks(quad.size, 1 << (2 * k)):
        try:
            pis = ortho_rows(quad[lo:hi])
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
    stacks; each distinct key is decoded once. The histograms of tables of
    degree <= 2, and the ortho-derivatives of the APN ones, come from
    _quadratic_hists, the histograms of the others from the DDT and Walsh
    tables."""
    keys = []
    for lo, hi in vbf_mod._stacks(tabs.shape[0], 1 << (2 * k)):
        stack = tabs[lo:hi]
        degrees = vbf_mod._degree_of_tables(stack, k)
        ddt, walsh = (np.empty((stack.shape[0], (1 << k) + 1), dtype=np.int64)
                      for _ in range(2))
        pis = np.zeros(stack.shape, dtype=np.uint16)
        quad, general = degrees <= 2, degrees > 2
        if quad.any():
            ddt[quad], walsh[quad], pis[quad] = _quadratic_hists(stack[quad], k)
        if general.any():
            ddt[general] = vbf_mod._diff_counts_batch(stack[general], k)
            walsh[general] = _batch_walsh_hists(stack[general], k)
        keys += signature_keys(k, degrees, _columns(ddt), _columns(walsh), pis.__getitem__)
    memo = {key: signature_of_key(key) for key in set(keys)}
    return [memo[key] for key in keys]


def invariant_signature(f: VBF) -> InvariantSignature:
    if f.n != f.m:
        raise ValueError("invariant signature requires n = m")
    return signatures_of_tables(f.table[None, :], f.n)[0]
