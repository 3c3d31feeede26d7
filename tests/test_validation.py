"""Input checks of the library: each bad input raises ValueError with its
own message."""

import re

import numpy as np
import pytest

from apnkit import catalog, extension, gf2, ortho, trimming, vbf
from apnkit.gf2 import GF2Matrix
from apnkit.trimming import Hyperplane, TrimDescriptor
from apnkit.vbf import VBF

NOT_SQUARE = VBF(3, 2, [0, 1, 2, 3, 0, 1, 2, 3])

CHECKS = {
    "TrimDescriptor beta = 0": (
        lambda: TrimDescriptor(Hyperplane(1), 0, 0, 1), "beta must be nonzero"),
    "trim wider than n": (
        lambda: trimming.trim(catalog.gold(3), TrimDescriptor.canonical(8, "linear", 1)),
        "descriptor does not fit the dimension"),
    "zero_extensions n < 3": (
        lambda: extension.zero_extensions(catalog.gold(2)), "Gamma machinery requires n >= 3"),
    "max_linearity_walsh_profile of a non-APN quadratic": (
        lambda: extension.max_linearity_walsh_profile(
            VBF.from_univariate(gf2.default_field(4), [(1, 5)])),
        "expected a quadratic APN function"),
    "r_extension_search r of the wrong shape": (
        lambda: extension.r_extension_search(catalog.gold(5), r=VBF.constant(5, 2)),
        "r must map n bits to 1 bit"),
    "r_extension_search r of degree 3": (
        lambda: extension.r_extension_search(
            catalog.gold(5), r=vbf.vbf_from_anf(5, 1, [0] * 7 + [1] + [0] * 24)),
        "r must have degree <= 2"),
    "ortho_derivative n != m": (
        lambda: ortho.ortho_derivative(NOT_SQUARE), "ortho-derivative requires n = m"),
    "invariant_signature n != m": (
        lambda: ortho.invariant_signature(NOT_SQUARE), "invariant signature requires n = m"),
    "fourth_moment n != m": (
        lambda: vbf.fourth_moment(NOT_SQUARE), "fourth moment test requires n = m"),
    "affine_transform input matrix": (
        lambda: vbf.affine_transform(NOT_SQUARE, GF2Matrix.identity(2), 0,
                                     GF2Matrix.identity(2), 0),
        "input matrix must be n x n"),
    "affine_transform output matrix": (
        lambda: vbf.affine_transform(NOT_SQUARE, GF2Matrix.identity(3), 0,
                                     GF2Matrix.identity(3), 0),
        "output matrix must be m x m"),
    "affine_transform additive matrix": (
        lambda: vbf.affine_transform(NOT_SQUARE, GF2Matrix.identity(2), 0,
                                     GF2Matrix.identity(3), 0, GF2Matrix.identity(3)),
        "additive matrix must be m x n"),
    "affine_transform additive matrix with an extra zero row": (
        lambda: vbf.affine_transform(catalog.fixture("gold5"), GF2Matrix.identity(5), 0,
                                     GF2Matrix.identity(5), 0, GF2Matrix.zeros(6, 5)),
        "additive matrix must be m x n"),
    "field_mul out of range": (
        lambda: gf2.field_mul(gf2.default_field(3), 8, 1), "operands must be 3-bit words"),
    "field_pow negative exponent": (
        lambda: gf2.field_pow(gf2.default_field(3), 2, -1), "negative exponent; use field_inv"),
    "GF2Matrix row count": (lambda: GF2Matrix(2, 2, [1]), "row count mismatch"),
    "GF2Matrix row too wide": (lambda: GF2Matrix(1, 2, [4]), "row exceeds declared width"),
    "GF2Matrix + shapes": (
        lambda: GF2Matrix.identity(2) + GF2Matrix.identity(3), "shape mismatch"),
    "GF2Matrix @ shapes": (
        lambda: GF2Matrix.zeros(2, 3) @ GF2Matrix.identity(2), "shape mismatch"),
    "lut header without m=": (
        lambda: catalog.parse_function("lut n=1 mod=0x3: 0 1"), "lut header needs m=<bits>"),
    "uni header without mod=": (
        lambda: catalog.parse_function("uni n=3 m=3: (0x1,3)"), "uni header needs mod=0x<hex>"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_bad_input_raises_value_error_with_its_message(name):
    call, message = CHECKS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("m, table, message", [
    (2, [1.5, 0, 0, 0], "table entries must be integers, got dtype float64"),
    (2, ["1", "0", "0", "0"], "table entries must be integers, got dtype <U1"),
    (2, [-1, 0, 0, 0], "table entry is negative"),
    (16, np.array([-1, 0, 0, 0]), "table entry is negative"),
    (2, np.array([0, 0, 0, -1], dtype=np.int8), "table entry is negative"),
    (2, [4, 0, 0, 0], "table entry exceeds 2 output bits"),
    (2, np.array([0, 4, 0, 0], dtype=np.uint16), "table entry exceeds 2 output bits"),
    (16, [1 << 16, 0, 0, 0], "table entry exceeds 16 output bits"),
])
def test_vbf_checks_entries_before_the_cast(m, table, message):
    """A float, a negative or a too-wide entry is refused, not truncated
    or wrapped by the cast to uint16."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        VBF(2, m, table)


@pytest.mark.parametrize("m, table", [
    (2, [True, False, True, True]),
    (2, np.array([3, 0, 1, 2], dtype=np.uint64)),
    (2, np.array([3, 0, 1, 2], dtype=np.int8)),
    (16, np.array([0xffff, 0, 1, 2], dtype=np.uint16)),
    (16, [0xffff, 0, 1, 2]),
])
def test_vbf_takes_integer_and_bool_entries(m, table):
    assert VBF(2, m, table).table.tolist() == np.asarray(table).astype(int).tolist()
