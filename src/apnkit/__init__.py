"""Toolkit for vectorial Boolean functions over F_2^n: spectral analysis
(ANF, Walsh, DDT, APN tests), trims and trim spectra, ortho-derivative
invariant signatures, and construction of APN functions by one-dimension
extension."""

from .gf2 import (
    AffineSolutionSpace, FieldSpec, GF2Matrix, default_field, field_inv,
    field_mul, field_pow, inner_product, is_irreducible, rank, rref,
    solve_affine, trace, trace_form, trace_gram,
)
from .vbf import (
    ANF, VBF, anf_and_degree,
    apn_by_moments, ddt, ddt_rows, derivative, differential_spectrum,
    differential_uniformity, extended_walsh_spectrum, fourth_moment,
    is_apn, linearity, random_ea_transform, random_function,
    random_quadratic, vbf_from_anf, walsh, walsh_rows,
)
from .ortho import (
    InvariantSignature, gold_ortho, invariant_signature, ortho_derivative,
)
from .trimming import (
    Hyperplane, TrimDescriptor, TrimSpectrum, TrimmingGraph, apn_trims,
    hyperplane_basis, project, recursive_witness, trim, trim_spectrum,
    trimming_graph,
)
from .extension import (
    ExtensionSpec, GammaSpace, build_extension, canonical_form_check,
    gamma_representatives, gamma_space, max_linearity_walsh_profile,
    r_extension_search, sample_quadratic_r, zero_ext_apn_test,
    zero_extensions,
)
from . import catalog

__version__ = "0.1.0"
