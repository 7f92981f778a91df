"""Asymmetric Landau states toolkit.

Constructs the Hermite-Laguerre-Gauss modes of a charged particle in a
magnetic field whose transverse symmetry at the entrance boundary is
broken, verifies the operator algebra and spectra behind them exactly,
and computes observables, density grids and geometric phases.
"""

__version__ = "0.1.0"
