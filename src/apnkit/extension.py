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

import random
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import gf2
from .gf2 import AffineSolutionSpace, GF2Matrix, extend_basis
from .ortho import invariant_signature, ortho_derivative
from .vbf import VBF, _mobius, _row_chunks, derivative, is_apn, walsh

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


def build_extension(g: VBF, r: Optional[VBF], lin: GF2Matrix, ell: int) -> VBF:
    """T(x, y) with input bit n as y and output bit n as r(x) + l(x)y."""
    ExtensionSpec(g, r, lin, ell)
    n = g.n
    xs = np.arange(1 << n, dtype=np.uint32)
    l_tab = np.array(lin.lut(), dtype=np.uint16)
    r_tab = r.table if r is not None else np.zeros(1 << n, dtype=np.uint16)
    ell_tab = (np.bitwise_count(xs & np.uint32(ell)) & 1).astype(np.uint16)
    low0 = g.table | (r_tab << n)
    low1 = (g.table ^ l_tab) | ((r_tab ^ ell_tab) << n)
    return VBF(n + 1, n + 1, np.concatenate([low0, low1]))


def _is_quadratic_apn(g: VBF) -> bool:
    """Whether g (n = m) has degree 2 and is APN. A function of degree 2 is
    APN exactly when it has an ortho-derivative, which is cached and which
    the Gamma machinery reads anyway, so no DDT is built."""
    if g.n != g.m or g.degree != 2:
        return False
    try:
        ortho_derivative(g)
    except ValueError:
        return False
    return True


def _require_quadratic_apn(g: VBF, who: str) -> None:
    if not _is_quadratic_apn(g):
        raise ValueError(f"{who} requires a quadratic APN function")


def zero_ext_apn_test(g: VBF, lin: GF2Matrix, ell: int) -> bool:
    """Whether (G, 0, L, l) yields an APN extension, decided through the
    ortho-derivative condition instead of building the table."""
    ExtensionSpec(g, None, lin, ell)
    if g.degree > 2:
        raise ValueError("zero_ext_apn_test requires degree <= 2")
    if ell == 0:
        raise ValueError("ell must be a nonzero linear form on n bits")
    if not _is_quadratic_apn(g):
        return False
    a = np.arange(1, 1 << g.n)
    kernel = a[(np.bitwise_count(a & ell) & 1) == 0]
    images = np.array(lin.lut(), dtype=np.uint16)[kernel]
    products = np.bitwise_count(ortho_derivative(g).table[kernel] & images) & 1
    return bool(products.all())


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
    cols = derivative(g.table, mu, 1 << np.arange(g.n))
    return GF2Matrix.from_columns(cols.tolist(), g.n)


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


def gamma_space(g: VBF, ell: int) -> GammaSpace:
    """Set up and solve the linear system defining Gamma_{G, <ell,.>}."""
    n = g.n
    if n < 3:
        raise ValueError("Gamma machinery requires n >= 3")
    if ell == 0 or ell >> n:
        raise ValueError("ell must be a nonzero linear form on n bits")
    _require_quadratic_apn(g, "gamma_space")
    return next(_gamma_spaces(g, range(ell, ell + 1)))


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
    # the matrices of B_{e_k}, k < n, as n^2-bit words
    words = tuple(vec_from_matrix(derivative_matrix(g, 1 << k)) for k in range(n))
    nrows = (1 << (n - 1)) - 1
    for lo, hi in _row_chunks(forms.start, forms.stop, nrows * (nn + 1)):
        ells = np.arange(lo, hi)
        kernel = np.nonzero((np.bitwise_count(ells[:, None] & points) & 1) == 0)[1]
        spaces = gf2.solve_affine_batch(equations[kernel.reshape(-1, nrows)], nn)
        for ell, space in zip(range(lo, hi), spaces):
            j_basis = words + tuple(ell << (k * n) for k in range(n))
            yield GammaSpace(n, ell, space, j_basis)


def gamma_representatives(gs: GammaSpace) -> list[GF2Matrix]:
    """Coset representatives of Gamma modulo Gamma-equivalence.

    The 2n-dimensional direction space spanned by j_basis always sits
    inside the solution kernel; representatives enumerate a complement of
    it, so their count is |Gamma| / 2^(2n).
    """
    if gs.empty:
        raise ValueError("Gamma space is empty")
    if len(extend_basis((), gs.j_basis)) < len(gs.j_basis):
        raise RuntimeError("Gamma-equivalence directions are dependent")
    if extend_basis(gs.space.basis, gs.j_basis):
        raise RuntimeError("Gamma-equivalence directions leave the solution kernel")
    complement = extend_basis(gs.j_basis, gs.space.basis)
    combos = gf2.span(np.array(complement, dtype=object)).tolist()
    return [matrix_from_vec(gs.space.particular ^ c, gs.n) for c in combos]


def zero_extensions(g: VBF) -> list[tuple[VBF, "InvariantSignature"]]:
    """All (n+1)-bit maximum-linearity APN extensions of g with r = 0
    over every choice of the form gamma, one per invariant signature: the
    first extension found with a signature is kept. Extensions of
    different EA-classes can share a signature, so the number returned is
    a lower bound on the number of EA-classes among them."""
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
            sig = invariant_signature(t)
            if sig.degree > 2 or not sig.apn or sig.walsh_spectrum[-1][0] != (1 << n):
                raise RuntimeError(
                    "zero-extension output violates its invariants")
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
    mags = np.abs(walsh(t)[1:])
    top = 1 << (nn - 1)
    if int(mags.max()) != top:
        raise ValueError("function does not have maximum linearity")
    bent_mag = 1 << (nn // 2)
    # a component counts under the first profile it fits, else under the last
    # row (at nn = 4 semi-bent and top values are both 8); by Parseval no row is 0
    fits = [(mags == bent_mag).all(axis=1)]
    fits += [((mags == 0) | (mags == v)).all(axis=1) for v in (2 * bent_mag, top)]
    profile = np.stack(fits + [np.ones(len(mags), dtype=bool)]).argmax(axis=0)
    if (profile == 3).any():
        beta = int(np.argmax(profile == 3)) + 1
        raise ValueError(f"component {beta} fits no Walsh profile: "
                         f"{set(np.unique(mags[beta - 1]).tolist())}")
    return tuple(np.bincount(profile, minlength=3).tolist())


def canonical_form_check(t: VBF, gamma: int) -> bool:
    """For T = (G(x), 0) + (x, <gamma, x>) y, test the canonical-form
    condition <pi_G(a), a> = 1 on the nonzero kernel of <gamma, .>."""
    nn = t.n
    n = nn - 1
    if t.m != nn or n < 1:
        raise ValueError("T must have n = m >= 2")
    if gamma == 0:
        raise ValueError("gamma must be a nonzero n-bit form")
    g_tab = t.table[: 1 << n]
    if (g_tab >> n).any():
        raise ValueError("T(x, 0) must have a zero last coordinate")
    g = VBF(n, n, g_tab)
    ident = GF2Matrix.identity(n)
    if t != build_extension(g, None, ident, gamma):
        raise ValueError("T is not in canonical form (L = id, l = <gamma,.>)")
    return g.degree <= 2 and zero_ext_apn_test(g, ident, gamma)


# ---------------------------------------------------------------------------
# randomized backtracking search for r-extensions
# ---------------------------------------------------------------------------

def sample_quadratic_r(g: VBF, rng: random.Random) -> VBF:
    """Random homogeneous quadratic Boolean function drawn from a fixed
    complement of the span of g's coordinate quadratic parts."""
    n = g.n
    monomials = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    # coordinate c of g's quadratic part as a word over the monomials
    parts = gf2._transpose(_mobius(g.table)[monomials].tolist(), n)
    units = extend_basis(parts, [1 << t for t in range(len(monomials))])
    complement = [monomials[u.bit_length() - 1] for u in units]
    picks = rng.getrandbits(len(complement)) if complement else 0
    anf = np.zeros(1 << n, dtype=np.uint16)
    anf[complement] = [(picks >> pos) & 1 for pos in range(len(complement))]
    return VBF(n, 1, _mobius(anf))


class _BudgetExhausted(Exception):
    pass


def _search_one_r(out0: np.ndarray, n: int, budget: int, mask: int, fixed_ell: Optional[int],
                  sink: Optional[list]) -> tuple[Optional[tuple], int]:
    """Depth-first construction of M = (L, l) by basis images from out0, the
    int32 table of H = (G(x), r(x)) with r(x) as bit n; returns (first
    solution or None, nodes used). With a ``sink`` list,
    every solution is appended to it and the search runs on to the end.

    For an APN G, T(x, y) = H(x) + y M(x) is APN iff M(a) is outside the
    image of the linearized derivative B^H_a for every a != 0, a table
    ok[a, c] built once. Level k tries the images c = t ^ mask of e_k for
    t = 0, 1, ..., one node each (skipping those whose l-bit differs from
    fixed_ell's), and descends into those with ok[2^k + s, c ^ M(s)] for
    every s < 2^k."""
    size = 1 << n
    xs = np.arange(size)
    ok = np.ones((size, 2 * size), dtype=bool)
    ok[xs[:, None], derivative(out0, xs[:, None], xs)] = False
    order = np.arange(2 * size) ^ mask
    orders = {None: order}
    for bit in (0, 1):
        orders[bit] = order[(order >> n) & 1 == bit]
    # M on the assigned span: ms[s] for s < 2^k at level k
    ms = np.zeros(size, dtype=order.dtype)
    imgs: list[int] = []
    nodes = 0

    def take(count: int) -> None:
        nonlocal nodes
        if nodes + count > budget:
            nodes = budget
            raise _BudgetExhausted
        nodes += count

    def leaf() -> tuple:
        # bit j of row i of L is bit i of imgs[j]; bit j of ell is bit n
        *rows, ell = gf2._transpose(imgs, n + 1)
        return GF2Matrix(n, n, rows), ell

    def dfs(k: int) -> Optional[tuple]:
        h = 1 << k
        cands = orders[None if fixed_ell is None else (fixed_ell >> k) & 1]
        passes = ok[xs[h: 2 * h, None], cands ^ ms[:h, None]].all(axis=0)
        done = 0
        for i in np.flatnonzero(passes).tolist():
            # a node for cand and for each failing candidate before it
            take(i + 1 - done)
            done = i + 1
            cand = int(cands[i])
            imgs.append(cand)
            if k + 1 == n:
                sol = leaf()
                if sink is None:
                    return sol
                sink.append(sol)
            else:
                ms[h: 2 * h] = ms[:h] ^ cand
                found = dfs(k + 1)
                if found is not None:
                    return found
            imgs.pop()
        take(len(cands) - done)
        return None

    try:
        return dfs(0), nodes
    except _BudgetExhausted:
        return None, nodes


def r_extension_search(g: VBF, *, r: Optional[VBF] = None,
                       rng: Optional[random.Random] = None,
                       budget: int = 10_000_000,
                       max_restarts: Optional[int] = None,
                       fixed_ell: Optional[int] = None,
                       find_all: bool = False,
                       stats: Optional[dict] = None):
    """Search for an (n+1)-bit quadratic APN extension of g.

    Guesses r (homogeneous quadratic modulo g's coordinates) unless one is
    given, then assigns the images M(e_k) of M = (L, l) depth-first,
    descending only into images under which M(a) stays outside the image
    of B^H_a, H = (G, r), for every nonzero a of the assigned span: over
    the whole space, that is exactly the APN condition on the extension.
    Aborting at the node budget returns None.
    With ``find_all``, every (L, ell) for the (then mandatory) fixed r goes
    to a sink list, and that list is returned instead. A ``find_all`` run
    cut at the budget returns the solutions found so far, a prefix of the
    full list in the same order; ``stats["nodes"]`` reaching the budget
    marks the cut (or a search that ended on its last node).
    """
    _require_quadratic_apn(g, "r_extension_search")
    n = g.n
    if r is not None and (r.n != n or r.m != 1):
        raise ValueError("r must map n bits to 1 bit")
    if r is not None and r.degree > 2:
        raise ValueError("r must have degree <= 2")
    if find_all and r is None:
        raise ValueError("find_all enumeration needs an explicit r")
    if fixed_ell is not None and not 0 <= fixed_ell < (1 << n):
        raise ValueError("fixed_ell out of range")
    if budget < 0 or (max_restarts is not None and max_restarts < 0):
        raise ValueError("budget and max_restarts must be at least 0")
    rng = rng if rng is not None else random.Random(0)
    g_out = g.table.astype(np.int32)
    nodes_total = 0
    restarts = 0
    solutions: Optional[list] = [] if find_all else None
    result: Optional[VBF] = None
    while nodes_total < budget:
        if max_restarts is not None and restarts >= max_restarts:
            break
        r_cur = r if r is not None else sample_quadratic_r(g, rng)
        mask = rng.getrandbits(n + 1)
        out0 = g_out | (r_cur.table.astype(np.int32) << n)
        found, used = _search_one_r(
            out0, n, budget - nodes_total, mask, fixed_ell, solutions)
        nodes_total += used
        restarts += 1
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

