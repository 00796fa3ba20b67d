"""The public names of the package: an export added or removed shows here."""

import importlib
import pkgutil

import pytest

import vlinetomo

PUBLIC = [
    "ConfigError", "FileFormatError", "GeometryError", "Grid2D", "Phantom",
    "PoissonResult", "ScalarField", "SingularDirections", "Sinogram",
    "StarGeometry", "VLineGeometry", "VectorField", "VlineError",
    "beam_field", "bump_scalar", "classify", "det2", "direction",
    "fbp_inverse", "forward_I", "forward_J", "forward_L", "forward_T",
    "forward_star", "gamma_of_psi", "grid_for_star", "grid_for_vline",
    "invert_signed", "invert_star", "laplacians_from_div_curl",
    "make_phantom", "perp", "q_of_psi", "radon_forward",
    "radon_transform_field", "random_phantom", "recover_curl", "recover_div",
    "recover_field_LI", "recover_field_LT", "recover_field_TJ",
    "recover_potential", "recover_stream", "rhombus_check", "signed_vline",
    "singular_directions", "sinogram_dds", "solve_dirichlet_disc",
    "solve_free_space", "unit_vector",
]

# the reference implementations the tests keep in tests/oracles.py
TEST_ONLY = [
    "RayQuadrature", "_step", "beam_values", "divergent_beam", "moment_beam",
    "directional_derivative", "divergence", "curl", "gradient",
    "HelmholtzParts", "helmholtz_decompose", "symmetric_by_coefficients",
]


def test_public_names_are_pinned():
    assert sorted(vlinetomo.__all__) == PUBLIC


@pytest.mark.parametrize("module", [vlinetomo] + [
    importlib.import_module(f"vlinetomo.{m.name}")
    for m in pkgutil.iter_modules(vlinetomo.__path__)],
    ids=lambda m: m.__name__)
def test_test_only_names_are_not_in_the_library(module):
    assert [name for name in TEST_ONLY if hasattr(module, name)] == []
