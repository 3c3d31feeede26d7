"""One-dimension extensions of quadratic APN functions.

An extension in standard form is T(x, y) = (G(x) + L(x)y, r(x) + l(x)y)
on F_2^n x F_2, for a quadratic G, a Boolean r of degree <= 2 and linear
(L, l). For r = 0 and l != 0, T is APN exactly when G is APN and
<pi_G(a), L(a)> = 1 on the nonzero kernel of l; the solutions L of that
linear system form the affine space Gamma_{G,l}, which this module
solves, quotients by Gamma-equivalence and turns into explicit maximum
linearity APN functions. A randomized backtracking search covers the
general r case.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import gf2
from .gf2 import AffineSolutionSpace, GF2Matrix, inner_product
from .ortho import ortho_derivative
from .vbf import _PAR16, VBF, _fwht, _row_chunks, is_apn, linearity, walsh

__all__ = [
    "ExtensionSpec", "GammaSpace", "build_extension", "zero_ext_apn_test",
    "gamma_space", "gamma_representatives", "zero_extensions",
    "max_linearity_walsh_profile", "canonical_form_check",
    "r_extension_search", "sample_quadratic_r", "matrix_from_vec",
    "vec_from_matrix", "derivative_matrix",
]


@dataclass(frozen=True)
class ExtensionSpec:
    """Data (G, r, L, l) of one extension in standard form; r = None means
    the zero function (a 0-extension)."""

    g: VBF
    r: Optional[VBF]
    lin: GF2Matrix
    ell: int

    def __post_init__(self) -> None:
        n = self.g.n
        if self.g.m != n:
            raise ValueError("G must have n = m")
        if self.lin.nrows != n or self.lin.ncols != n:
            raise ValueError("L must be n x n")
        if not 0 <= self.ell < (1 << n):
            raise ValueError("ell out of range")
        if self.r is not None and (self.r.n != n or self.r.m != 1):
            raise ValueError("r must map n bits to 1 bit")

    def build(self) -> VBF:
        return build_extension(self.g, self.r, self.lin, self.ell)


def build_extension(g: VBF, r: Optional[VBF], lin: GF2Matrix, ell: int) -> VBF:
    """T(x, y) with input bit n as y and output bit n as r(x) + l(x)y."""
    spec = ExtensionSpec(g, r, lin, ell)
    n = g.n
    xs = np.arange(1 << n, dtype=np.uint32)
    l_tab = np.array(lin.lut(), dtype=np.uint16)
    r_tab = r.table if r is not None else np.zeros(1 << n, dtype=np.uint16)
    ell_tab = _PAR16[xs & np.uint32(ell)].astype(np.uint16)
    low0 = g.table | (r_tab << n)
    low1 = (g.table ^ l_tab) | ((r_tab ^ ell_tab) << n)
    return VBF(n + 1, n + 1, np.concatenate([low0, low1]))


def _require_quadratic_apn(g: VBF, who: str) -> None:
    if g.n != g.m or g.degree != 2 or not is_apn(g):
        raise ValueError(f"{who} requires a quadratic APN function")


def zero_ext_apn_test(g: VBF, lin: GF2Matrix, ell: int) -> bool:
    """Whether (G, 0, L, l) yields an APN extension, decided through the
    ortho-derivative condition instead of building the table."""
    if g.degree > 2:
        raise ValueError("zero_ext_apn_test requires degree <= 2")
    if ell == 0 or ell >> g.n:
        raise ValueError("ell must be a nonzero linear form on n bits")
    if g.degree != 2 or not is_apn(g):
        return False
    pi = ortho_derivative(g).table
    for a in range(1, 1 << g.n):
        if inner_product(ell, a) == 0:
            if inner_product(int(pi[a]), lin.mul_vec(a)) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# the Gamma space and its quotient
# ---------------------------------------------------------------------------

def vec_from_matrix(m: GF2Matrix) -> int:
    """Column-stack an n x n matrix into an n^2-bit word, bit i*n+j = m[i][j]."""
    return sum(r << (i * m.ncols) for i, r in enumerate(m.rows))


def matrix_from_vec(vec: int, n: int) -> GF2Matrix:
    mask = (1 << n) - 1
    return GF2Matrix(n, n, tuple((vec >> (i * n)) & mask for i in range(n)))


def derivative_matrix(g: VBF, mu: int) -> GF2Matrix:
    """Matrix of the linearized derivative B_mu for quadratic g."""
    tab = g.table
    g0 = int(tab[0])
    gmu = int(tab[mu])
    cols = [int(tab[(1 << j) ^ mu]) ^ gmu ^ int(tab[1 << j]) ^ g0
            for j in range(g.n)]
    return GF2Matrix.from_columns(cols, g.n)


def rank_one(nu: int, ell: int, n: int) -> GF2Matrix:
    """Matrix of x -> <ell, x> * nu."""
    return GF2Matrix(n, n, tuple(ell if (nu >> i) & 1 else 0
                                 for i in range(n)))


@dataclass(frozen=True)
class GammaSpace:
    """Solutions L of <pi_G(a), L(a)> = 1 on ker(l) \\ {0}, as an affine
    space over the n^2 matrix bits, plus the 2n direction vectors spanned
    by the derivative matrices B_mu and the rank-one maps x -> l(x) nu."""

    n: int
    g: VBF
    ell: int
    space: AffineSolutionSpace
    j_basis: tuple[int, ...]

    @property
    def empty(self) -> bool:
        return self.space.empty

    @property
    def size(self) -> int:
        return self.space.size

    def __contains__(self, lin: GF2Matrix) -> bool:
        return vec_from_matrix(lin) in self.space

    def matrices(self) -> Iterator[GF2Matrix]:
        for v in self.space:
            yield matrix_from_vec(v, self.n)


def gamma_space(g: VBF, ell: int) -> GammaSpace:
    """Set up and solve the linear system defining Gamma_{G, <ell,.>}."""
    n = g.n
    if n < 3:
        raise ValueError("Gamma machinery requires n >= 3")
    if ell == 0 or ell >> n:
        raise ValueError("ell must be a nonzero linear form on n bits")
    _require_quadratic_apn(g, "gamma_space")
    return next(_gamma_spaces(g, range(ell, ell + 1)))


def _derivative_words(g: VBF) -> tuple[int, ...]:
    """The matrices of B_{e_k}, k < n, as n^2-bit words."""
    return tuple(vec_from_matrix(derivative_matrix(g, 1 << k))
                 for k in range(g.n))


def _gamma_spaces(g: VBF, forms: range) -> Iterator[GammaSpace]:
    """gamma_space for each of the given forms, which the caller has
    checked along with g (quadratic APN, n >= 3).

    The equation <pi_G(a), L(a)> = 1 of every nonzero a has the bits
    pi_G(a)_i a_j at i*n + j and the right-hand side at n^2; it is built
    once, and the system of a form takes the equations of its nonzero
    kernel. The systems of a chunk of forms are solved in one batched
    elimination.
    """
    n = g.n
    nn = n * n
    points = np.arange(1, 1 << n)
    pi = ortho_derivative(g).table[1:]
    shifts = np.arange(n)
    bits = np.ones((points.size, nn + 1), dtype=bool)
    bits[:, :nn] = (((pi[:, None] >> shifts) & 1)[:, :, None]
                    & ((points[:, None] >> shifts) & 1)[:, None, :]).reshape(-1, nn)
    equations = gf2.pack_words(bits)
    words = _derivative_words(g)
    nrows = (1 << (n - 1)) - 1
    for lo, hi in _row_chunks(forms.start, forms.stop, nrows * (nn + 1)):
        ells = np.arange(lo, hi)
        kernel = np.nonzero(_PAR16[ells[:, None] & points] == 0)[1]
        spaces = gf2.solve_affine_batch(equations[kernel.reshape(-1, nrows)], nn)
        for ell, space in zip(range(lo, hi), spaces):
            j_basis = words + tuple(ell << (k * n) for k in range(n))
            yield GammaSpace(n, g, ell, space, j_basis)


def _echelon_insert(echelon: list[int], v: int) -> int:
    """Reduce v against the echelon (rows keyed by lowest set bit) and
    insert the remainder if nonzero; returns the remainder."""
    for row in echelon:
        if v & (row & -row):
            v ^= row
    if v:
        echelon.append(v)
        echelon.sort(key=lambda r: r & -r)
    return v


def gamma_representatives(gs: GammaSpace) -> list[GF2Matrix]:
    """Coset representatives of Gamma modulo Gamma-equivalence.

    The 2n-dimensional direction space spanned by j_basis always sits
    inside the solution kernel; representatives enumerate a complement of
    it, so their count is |Gamma| / 2^(2n).
    """
    if gs.empty:
        raise ValueError("Gamma space is empty")
    n = gs.n
    ech: list[int] = []
    for v in gs.j_basis:
        if _echelon_insert(ech, v) == 0:
            raise RuntimeError("Gamma-equivalence directions are dependent")
    kernel_ech: list[int] = []
    for b in gs.space.basis:
        _echelon_insert(kernel_ech, b)
    for v in gs.j_basis:
        probe = v
        for row in kernel_ech:
            if probe & (row & -row):
                probe ^= row
        if probe:
            raise RuntimeError(
                "Gamma-equivalence directions leave the solution kernel")
    complement = []
    for b in gs.space.basis:
        if _echelon_insert(ech, b):
            complement.append(b)
    reps = []
    combo = [0] * (1 << len(complement))
    for t in range(1, len(combo)):
        low = t & -t
        combo[t] = combo[t ^ low] ^ complement[low.bit_length() - 1]
    for c in combo:
        reps.append(matrix_from_vec(gs.space.particular ^ c, n))
    return reps


def zero_extensions(g: VBF) -> list[tuple[VBF, "InvariantSignature"]]:
    """All (n+1)-bit maximum-linearity APN extensions of g with r = 0
    over every choice of the form gamma, one per invariant signature: the
    first extension found with a signature is kept. Extensions of
    different EA-classes can share a signature, so the number returned is
    a lower bound on the number of EA-classes among them."""
    from .ortho import invariant_signature

    _require_quadratic_apn(g, "zero_extensions")
    n = g.n
    if n < 3:
        raise ValueError("Gamma machinery requires n >= 3")
    out: list[tuple[VBF, "InvariantSignature"]] = []
    seen = set()
    for gs in _gamma_spaces(g, range(1, 1 << n)):
        if gs.empty:
            continue
        for lin in gamma_representatives(gs):
            t = build_extension(g, None, lin, gs.ell)
            if t.degree > 2 or not is_apn(t) or linearity(t) != (1 << n):
                raise RuntimeError(
                    "zero-extension output violates its invariants")
            sig = invariant_signature(t)
            if sig not in seen:
                seen.add(sig)
                out.append((t, sig))
    return out


# ---------------------------------------------------------------------------
# Walsh profile and canonical form of maximum-linearity functions
# ---------------------------------------------------------------------------

def max_linearity_walsh_profile(t: VBF) -> tuple[int, int, int]:
    """Counts of (bent, semi-bent, top-linearity) components of a quadratic
    APN function on an even number of bits with linearity half the table
    size; raises if any component fits no profile."""
    nn = t.n
    if t.m != nn or nn < 4 or nn % 2:
        raise ValueError("expected a quadratic APN function on even bits >= 4")
    if t.degree != 2 or not is_apn(t):
        raise ValueError("expected a quadratic APN function")
    w = walsh(t)
    top = 1 << (nn - 1)
    if int(np.abs(w.values[1:]).max()) != top:
        raise ValueError("function does not have maximum linearity")
    bent_mag = 1 << (nn // 2)
    semi_mag = bent_mag << 1
    bent = semibent = maxlin = 0
    for beta in range(1, 1 << nn):
        mags = set(np.unique(np.abs(w.values[beta])).tolist())
        if mags == {bent_mag}:
            bent += 1
        elif mags == {0, semi_mag}:
            semibent += 1
        elif mags == {0, top}:
            maxlin += 1
        else:
            raise ValueError(f"component {beta} fits no Walsh profile: {mags}")
    return bent, semibent, maxlin


def canonical_form_check(t: VBF, gamma: int) -> bool:
    """For T = (G(x), 0) + (x, <gamma, x>) y, test the canonical-form
    condition <pi_G(a), a> = 1 on the nonzero kernel of <gamma, .>."""
    nn = t.n
    n = nn - 1
    if t.m != nn or n < 1:
        raise ValueError("T must have n = m >= 2")
    if gamma == 0 or gamma >> n:
        raise ValueError("gamma must be a nonzero n-bit form")
    size = 1 << n
    tab = t.table
    g_tab = tab[:size]
    if (g_tab >> n).any():
        raise ValueError("T(x, 0) must have a zero last coordinate")
    xs = np.arange(size, dtype=np.uint16)
    expect = (g_tab ^ xs) ^ (_PAR16[xs & np.uint16(gamma)].astype(np.uint16) << n)
    if not np.array_equal(tab[size:], expect):
        raise ValueError("T is not in canonical form (L = id, l = <gamma,.>)")
    g = VBF(n, n, g_tab)
    if g.degree != 2 or not is_apn(g):
        return False
    pi = ortho_derivative(g).table
    return all(inner_product(int(pi[a]), a) == 1
               for a in range(1, size) if inner_product(gamma, a) == 0)


# ---------------------------------------------------------------------------
# randomized backtracking search for r-extensions
# ---------------------------------------------------------------------------

def sample_quadratic_r(g: VBF, rng: random.Random) -> VBF:
    """Random homogeneous quadratic Boolean function drawn from a fixed
    complement of the span of g's coordinate quadratic parts."""
    from .vbf import _mobius

    n = g.n
    monomials = [(1 << i) | (1 << j)
                 for i in range(n) for j in range(i + 1, n)]
    index = {m: t for t, m in enumerate(monomials)}
    coeffs = _mobius(g.table)
    span_rows = []
    for c in range(n):
        vec = 0
        for mask, t in index.items():
            vec |= ((int(coeffs[mask]) >> c) & 1) << t
        span_rows.append(vec)
    ech: list[int] = []
    for v in span_rows:
        _echelon_insert(ech, v)
    complement = []
    for t in range(len(monomials)):
        if _echelon_insert(ech, 1 << t):
            complement.append(t)
    xs = np.arange(1 << n, dtype=np.uint16)
    tab = np.zeros(1 << n, dtype=np.uint16)
    picks = rng.getrandbits(len(complement)) if complement else 0
    for pos, t in enumerate(complement):
        if (picks >> pos) & 1:
            mask = monomials[t]
            i = (mask & -mask).bit_length() - 1
            j = mask.bit_length() - 1
            tab ^= (xs >> i) & (xs >> j) & 1
    return VBF(n, 1, tab)


class _BudgetExhausted(Exception):
    pass


def _level_chunks(k: int, n: int) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """What the APN test of level k needs besides the outputs, per chunk of
    differences w: the partner p + w of every point p, each pair's
    bincount offset (its row, and whether it carries c once), and the
    first row whose B_w can be nonempty. The differences inside the
    assigned span without y come first: they never carry c."""
    values = 2 << n
    h = 2 << k
    points = np.arange(2 * h, dtype=np.int32)
    carries = (points >= h) & (points & 1 == 1)
    ws = np.concatenate([points[2:h:2], points[1:h:2], points[h:]])
    chunks = []
    for lo, hi in _row_chunks(0, ws.size, 2 * values):
        part = ws[lo:hi, None] ^ points
        row = np.arange(hi - lo, dtype=np.int32)[:, None]
        offset = (2 * row + (carries[part] ^ carries)) * values
        chunks.append((part, offset, max(h // 2 - 1 - lo, 0)))
    return chunks


def _passing_candidates(free: np.ndarray, values: int,
                        chunks: list[tuple[np.ndarray, np.ndarray, int]]) -> np.ndarray:
    """Which of the 2^(n+1) = values images c of e_k keep the extension APN
    on the span of e_0 .. e_k and y, as a bool vector indexed by c.

    Points are p = 2x + y, so the assigned span is p < h = 2^(k+1) and the
    new coset is h <= p < 2h. free[p] is the output at p for c = 0; c adds
    itself to the outputs at the odd points of the new coset. For a
    difference w, the values of the pairs {p, p + w} split into F_w (no c,
    or c twice) and B_w (c once); c passes iff F_w and B_w have no repeat
    and no f in F_w, b in B_w has f + b = c. The number of such (f, b) over
    all w is an XOR correlation, counted for every c at once by
    Walsh-Hadamard transforms; every pair is seen from both ends, so the
    counts are doubled, and every sum is at most 2^(4n+2).
    """
    acc = np.zeros(values, dtype=np.int64)
    for part, offset, first in chunks:
        keys = offset + (np.take(free, part) ^ free)
        counts = np.bincount(keys.ravel(), minlength=len(part) * 2 * values)
        counts = counts.reshape(-1, 2, values)
        if counts.max() > 2:
            # a value repeats in some F_w or B_w, whatever c is
            return np.zeros(values, dtype=bool)
        if first < len(part):
            spec = _fwht(counts[first:])
            acc += (spec[:, 0] * spec[:, 1]).sum(axis=0)
    return _fwht(acc) == 0


def _search_one_r(g_tab: list[int], n: int, r_tab: list[int], budget: int,
                  mask: int, fixed_ell: Optional[int],
                  find_all: bool, sink: list) -> tuple[Optional[tuple], int, list[int]]:
    """Depth-first construction of (L, l) by basis images; returns
    (first solution or None, nodes used, assignment at stop).

    Level k tries the images c = t ^ mask of e_k for t = 0, 1, ..., one node
    each (skipping those whose l-bit differs from fixed_ell's), and descends
    into those that keep the extension APN on the span assigned so far."""
    size = 1 << n
    values = size << 1
    out0 = np.array(g_tab, dtype=np.int32) | (np.array(r_tab, dtype=np.int32) << n)
    # T at the points p = 2x + y, filled one level at a time
    o = np.zeros(values, dtype=np.int32)
    o[:2] = out0[0]
    steps = [np.repeat(out0[: 1 << k] ^ out0[1 << k: 2 << k], 2) for k in range(n)]
    order = np.arange(values) ^ mask
    orders = {None: order}
    for bit in (0, 1):
        orders[bit] = order[(order >> n) & 1 == bit]
    levels: dict[int, list] = {}
    imgs: list[int] = []
    nodes = 0

    def take(count: int) -> None:
        nonlocal nodes
        if nodes + count > budget:
            nodes = budget
            raise _BudgetExhausted
        nodes += count

    def leaf() -> tuple:
        cols = [c & (size - 1) for c in imgs]
        ell = 0
        for j, c in enumerate(imgs):
            ell |= ((c >> n) & 1) << j
        return GF2Matrix.from_columns(cols, n), ell

    def dfs(k: int) -> Optional[tuple]:
        h = 2 << k
        cands = orders[None if fixed_ell is None else (fixed_ell >> k) & 1]
        if k not in levels:
            levels[k] = _level_chunks(k, n)
        o[h: 2 * h] = o[:h] ^ steps[k]
        passes = _passing_candidates(o[: 2 * h], values, levels[k])[cands]
        done = 0
        for i in np.flatnonzero(passes).tolist():
            # a node for cand and for each failing candidate before it
            take(i + 1 - done)
            done = i + 1
            cand = int(cands[i])
            imgs.append(cand)
            if k + 1 == n:
                sol = leaf()
                if not find_all:
                    return sol
                sink.append(sol)
            else:
                o[h: 2 * h] = o[:h] ^ steps[k]
                o[h + 1: 2 * h: 2] ^= cand
                found = dfs(k + 1)
                if found is not None:
                    return found
            imgs.pop()
        take(len(cands) - done)
        return None

    try:
        found = dfs(0)
    except _BudgetExhausted:
        return None, nodes, list(imgs)
    return found, nodes, list(imgs)


def r_extension_search(g: VBF, *, r: Optional[VBF] = None,
                       rng: Optional[random.Random] = None,
                       budget: int = 10_000_000,
                       max_restarts: Optional[int] = None,
                       fixed_ell: Optional[int] = None,
                       find_all: bool = False,
                       checkpoint_path: Optional[str] = None,
                       g_id: str = "G",
                       stats: Optional[dict] = None):
    """Search for an (n+1)-bit quadratic APN extension of g.

    Guesses r (homogeneous quadratic modulo g's coordinates) unless one is
    given, then assigns the images (L, l)(e_k) depth-first, descending only
    into images under which no difference vector inside the assigned span
    repeats an output difference. Aborting at the node
    budget returns None. With ``find_all`` the full list of (L, ell)
    assignments for the (then mandatory) fixed r is returned instead.
    """
    _require_quadratic_apn(g, "r_extension_search")
    n = g.n
    if r is not None and (r.n != n or r.m != 1):
        raise ValueError("r must map n bits to 1 bit")
    if r is not None and r.degree > 2:
        raise ValueError("r must have degree <= 2")
    if find_all and r is None:
        raise ValueError("find_all enumeration needs an explicit r")
    rng = rng if rng is not None else random.Random(0)
    g_tab = [int(v) for v in g.table]
    nodes_total = 0
    restarts = 0
    solutions: list = []
    result: Optional[VBF] = None
    while nodes_total < budget:
        if max_restarts is not None and restarts >= max_restarts:
            break
        r_cur = r if r is not None else sample_quadratic_r(g, rng)
        mask = rng.getrandbits(n + 1)
        r_tab = [int(v) for v in r_cur.table]
        found, used, partial = _search_one_r(
            g_tab, n, r_tab, budget - nodes_total, mask, fixed_ell,
            find_all, solutions)
        nodes_total += used
        restarts += 1
        if checkpoint_path:
            _write_checkpoint(checkpoint_path, g_id, r_cur, partial,
                              nodes_total)
        if found is not None:
            lin, ell = found
            result = build_extension(g, r_cur, lin, ell)
            break
        if r is not None:
            break
    if stats is not None:
        stats.update(nodes=nodes_total, restarts=restarts)
    if find_all:
        return solutions
    return result


def _write_checkpoint(path: str, g_id: str, r_cur: VBF,
                      assignment: list[int], nodes: int) -> None:
    from .vbf import _mobius

    anf_bits = _mobius(r_cur.table)
    packed = 0
    for u, c in enumerate(anf_bits):
        packed |= int(c & 1) << u
    rec = {"g_id": g_id, "r_anf": f"{packed:x}",
           "assignment": assignment, "nodes": nodes}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
