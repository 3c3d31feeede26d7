import random

import pytest

from apnkit import catalog, gf2, ortho
from apnkit import vbf as vbf_mod
from apnkit.gf2 import default_field, inner_product
from apnkit.ortho import gold_ortho, invariant_signature, ortho_derivative
from apnkit.vbf import (
    VBF, derivative_map, is_apn, random_ea_transform, random_quadratic,
)


def test_gold_ortho_basics():
    spec = default_field(5)
    pi = gold_ortho(spec, 1)
    assert pi(0) == 0
    with pytest.raises(ValueError):
        gold_ortho(default_field(6), 1)   # even n
    with pytest.raises(ValueError):
        gold_ortho(default_field(9), 3)   # gcd != 1


def test_gold_ortho_n3_is_x4():
    spec = gf2.FieldSpec(3, 0b1011)
    # x^-3 = x^4 on the nonzero elements of F_8
    x4 = VBF.from_univariate(spec, [(1, 4)])
    assert gold_ortho(spec, 1) == x4


@pytest.mark.parametrize("n", [3, 5, 7])
def test_gold_ortho_matches_computed_under_trace_pairing(n):
    spec = default_field(n)
    g = catalog.gold(n)
    assert ortho_derivative(g, gram=gf2.trace_gram(spec)) == gold_ortho(spec, 1)


def test_gold_ortho_n7_value():
    spec = default_field(7)
    exp = gf2.exp_table(spec)
    pi = gold_ortho(spec, 1)
    assert pi(2) == exp[124]  # pi(g) = g^-3 = g^124


def test_defining_identity_exhaustive_on_g1():
    g1 = catalog.g7(1)
    pi = ortho_derivative(g1)
    for a in range(1, 128):
        assert pi(a) != 0
        b = derivative_map(g1, a).vbf
        assert all(inner_product(pi(a), int(v)) == 0 for v in b.table)


def test_ortho_requires_quadratic_apn():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        ortho_derivative(VBF.from_univariate(default_field(5), [(1, 7)]))  # degree 3
    while True:
        f = random_quadratic(5, 5, rng)
        if not is_apn(f) and f.degree == 2:
            break
    with pytest.raises(ValueError):
        ortho_derivative(f)


def test_signatures_of_g_fixtures_distinct():
    sigs = {invariant_signature(catalog.g7(i)) for i in (1, 2, 3, 4)}
    assert len(sigs) == 4


def test_signature_is_ea_invariant():
    rng = random.Random(1)
    for f in (catalog.gold(5), catalog.g7(2)):
        base = invariant_signature(f)
        for _ in range(3):
            assert invariant_signature(random_ea_transform(f, rng)) == base


def test_signature_linear_equivalence_stability():
    rng = random.Random(2)
    g = catalog.gold(7)
    base = invariant_signature(g)
    for _ in range(3):
        assert invariant_signature(
            random_ea_transform(g, rng, with_affine_part=False)) == base


def test_known_signature_collision_at_n5():
    # the two 5-bit quadratic APN classes are EA-inequivalent, yet share
    # all four signature spectra; counts keyed by signature are therefore
    # lower bounds for EA-class counts
    x3 = catalog.gold(5)
    x5 = VBF.from_univariate(default_field(5), [(1, 5)])
    assert is_apn(x5) and x3 != x5
    assert ortho_derivative(x3) != ortho_derivative(x5)
    assert invariant_signature(x3) == invariant_signature(x5)


def test_signature_fields_presence():
    sig = invariant_signature(catalog.gold(5))
    assert sig.apn and sig.degree == 2
    assert sig.ortho_diff_spectrum is not None
    rng = random.Random(3)
    f = random_quadratic(5, 5, rng)
    if not is_apn(f):
        s = invariant_signature(f)
        assert s.ortho_diff_spectrum is None and s.ortho_walsh_spectrum is None


def test_signature_serialization_canonical():
    sig = invariant_signature(catalog.gold(3))
    text = sig.canonical()
    assert text.startswith("sig{deg=2;apn=1;ds=[(0,") and text.endswith("}")
    assert sig.key64() == invariant_signature(catalog.gold(3)).key64()
    assert len(sig.key64()) == 16
    other = invariant_signature(catalog.gold(7))
    assert other.canonical() != text


def test_max_linearity_ortho_constant_on_hyperplane():
    # level sets of pi_T contain a linear space of dimension (input dim - 2)
    for t in (catalog.t6(), catalog.t8(1)):
        pi = ortho_derivative(t)
        nn = t.n
        want = 1 << (nn - 2)
        levels = {}
        for a in range(1, 1 << nn):
            levels.setdefault(pi(a), []).append(a)
        found = False
        for members in levels.values():
            if len(members) != want - 1:
                continue
            space = set(members) | {0}
            if all((a ^ b) in space for a in space for b in space):
                found = True
                break
        assert found


def _use_solver_path(monkeypatch):
    """Route ortho_derivative through the batched kernel solve used above
    n = 10, from a cold cache (both paths give the same values)."""
    ortho._ortho_cached.cache_clear()
    monkeypatch.setattr(ortho, "_BATCH_MAX_N", 2)


def _ortho_inputs():
    return [catalog.gold(5), catalog.gold(7), catalog.fixture("G1"),
            random_ea_transform(catalog.fixture("G3"), random.Random(4))]


def test_ortho_solver_path_matches_mask_path(monkeypatch):
    ortho._ortho_cached.cache_clear()
    gram = gf2.trace_gram(default_field(7))
    want = [ortho_derivative(f) for f in _ortho_inputs()]
    want_trace = ortho_derivative(catalog.gold(7), gram)
    _use_solver_path(monkeypatch)
    assert [ortho_derivative(f) for f in _ortho_inputs()] == want
    assert ortho_derivative(catalog.gold(7), gram) == want_trace
    # one system per chunk
    ortho._ortho_cached.cache_clear()
    monkeypatch.setattr(vbf_mod, "_BATCH_CELL_LIMIT", 10)
    assert [ortho_derivative(f) for f in _ortho_inputs()] == want


def test_ortho_solver_path_rejects_non_apn(monkeypatch):
    _use_solver_path(monkeypatch)
    f = random_quadratic(5, 5, random.Random(11))
    assert f.degree == 2 and not is_apn(f)
    with pytest.raises(ValueError, match="not APN"):
        ortho_derivative(f)
