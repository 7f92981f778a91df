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
    op_commutator,
)
from .modes import (
    ModeIndex,
    alpha_to_beta,
    beta_to_alpha,
    euler_angles,
    hlg_block,
    hlg_state,
    schwinger_state,
    wigner_decompose,
)
from .operators import (
    casimir,
    dilate,
    eigen_residual,
    expectation,
    h1,
    h2,
    h3,
    h_as,
    h_perp,
    h_phys,
    hs,
    rotate,
    spin_axis,
)

__all__ = [
    "GaussianPolyState",
    "PolyDiffOperator",
    "ModeIndex",
    "alpha_to_beta",
    "apply",
    "beta_to_alpha",
    "casimir",
    "compose",
    "density_grid",
    "dilate",
    "eigen_residual",
    "euler_angles",
    "evaluate",
    "expectation",
    "gaussian_moment",
    "h1",
    "h2",
    "h3",
    "h_as",
    "h_perp",
    "h_phys",
    "hlg_block",
    "hlg_state",
    "hs",
    "inner_product",
    "op_commutator",
    "rotate",
    "schwinger_state",
    "spin_axis",
    "wigner_decompose",
]

__version__ = "0.1.0"
