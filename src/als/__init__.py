"""Asymmetric Landau states toolkit.

Constructs the Hermite-Laguerre-Gauss modes of a charged particle in a
magnetic field whose transverse symmetry at the entrance boundary is
broken, verifies the operator algebra and spectra behind them exactly,
and computes observables, density grids and geometric phases.
"""

from .gstate import (
    GaussianPolyState,
    PolyDiffOperator,
    apply,
    compose,
    density_grid,
    evaluate,
    gaussian_moment,
    inner_product,
    linear_combine,
)
from .modes import (
    ModeIndex,
    alpha_to_beta,
    beta_to_alpha,
    euler_angles,
    hlg_state,
    mode_from_twisted,
    schwinger_state,
    wigner_decompose,
    wigner_reconstruct,
)
from .operators import (
    OperatorKind,
    build,
    commutator,
    dilate,
    eigen_residual,
    expectation,
    rotate,
    spin_axis,
)

__all__ = [
    "GaussianPolyState",
    "PolyDiffOperator",
    "ModeIndex",
    "OperatorKind",
    "alpha_to_beta",
    "apply",
    "beta_to_alpha",
    "build",
    "commutator",
    "compose",
    "density_grid",
    "dilate",
    "eigen_residual",
    "euler_angles",
    "evaluate",
    "expectation",
    "gaussian_moment",
    "hlg_state",
    "inner_product",
    "linear_combine",
    "mode_from_twisted",
    "rotate",
    "schwinger_state",
    "spin_axis",
    "wigner_decompose",
    "wigner_reconstruct",
]

__version__ = "0.1.0"
