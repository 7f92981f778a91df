"""Mode-sphere geometry and discrete geometric phases.

Each parameter pair (phi, alpha) marks the point

    n = (cos 2phi cos 2alpha, sin 2phi cos 2alpha, sin 2alpha)

on the unit sphere that classifies the rotated mode family.  Transporting
a mode around a closed parameter loop leaves a geometric phase

    Phi = -Arg prod_k <psi(v_k) | psi(v_{k+1})>

(the discrete phase-product; manifestly gauge invariant because every
vertex state enters once as a bra and once as a ket).  The vertex states
are vectors of the mode's Hs level in its Laguerre-Gauss basis, where a
rotation by phi is the phase exp(-i phi l) on the basis mode of angular
momentum l, so each overlap is one (n + m + 1)-term dot product.  As the
segment count grows it converges to -(l/2) * Omega, where Omega is the
signed solid angle the loop encloses, counted positive for
counterclockwise traversal seen from the +z pole.

Solid angles are summed from signed vertex-triangle excesses fanned from
the +z pole, which handles great-circle loops and multiple windings; the
admissible parameter domain alpha in [0, pi/2] keeps every path on the
closed northern hemisphere, away from the antipode of the fan origin.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .modes import hlg_blocks, lg_expansion
from .operators import spin_axis

#: Consecutive-vertex overlaps below this magnitude abort the phase product.
MIN_OVERLAP = 1e-6

_CLOSE_TOL = 1e-9


class ResolutionError(ValueError):
    """The discrete path is too coarse for a meaningful phase product."""


def wrap_phase(x: float) -> float:
    """x modulo 2 pi, in (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class SpherePath:
    """Closed loop of ordered (phi, alpha) vertices; the last repeats the first.

    ``vertices`` is one read-only (K, 2) array, so paths do not compare with
    ==.  Closure is judged in sphere coordinates (azimuth 2 phi mod 2 pi), so
    a seam crossing like (phi, pi/2) == (phi + pi/2, 0) closes a loop.
    """

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.array(self.vertices, dtype=float)
        verts.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 2:
            raise ValueError("a path needs at least two (phi, alpha) vertices")
        if np.linalg.norm(spin_axis(*verts[0]) - spin_axis(*verts[-1])) > _CLOSE_TOL:
            raise ValueError("closed path must end on its first vertex in sphere coordinates")

    def points(self) -> np.ndarray:
        """Sphere points of all vertices, shape (len, 3)."""
        return spin_axis(*self.vertices.T)

    def reversed(self) -> "SpherePath":
        return SpherePath(self.vertices[::-1])


def latitude_loop(alpha: float, segments: int) -> SpherePath:
    """Constant-alpha loop; phi sweeps 0 -> pi so the azimuth covers 2 pi.

    Counterclockwise seen from the +z pole.
    """
    if segments < 3:
        raise ValueError("need at least 3 segments")
    phis = np.linspace(0.0, math.pi, segments + 1)
    return SpherePath(np.stack([phis, np.full_like(phis, alpha)], axis=1))

def polar_loop(phi0: float, segments: int) -> SpherePath:
    """Two great-circle arcs bounding an azimuthal sector of the north cap.

    Ascends the meridian at phi0 from the equator over the pole down to
    the antipodal equator point, then returns along the equator.
    Encloses a quarter sphere (|Omega| = pi).
    """
    if segments < 4:
        raise ValueError("need at least 4 segments")
    # the sphere point depends on 2 phi0 and the vertex states change only
    # by a global sign under phi0 -> phi0 + pi, so the loop's solid angle and
    # phase have period pi; fmod is exact, keeps every |phi0| < pi as it is,
    # and stops phi0 + pi/2 - t from rounding the return arc away
    phi0 = math.fmod(phi0, math.pi)
    half = segments // 2
    up = np.linspace(0.0, 0.5 * math.pi, half + 1)
    back = phi0 + 0.5 * math.pi - np.linspace(0.0, 0.5 * math.pi, segments - half + 1)[1:]
    phis = np.concatenate([np.full_like(up, phi0), back])
    return SpherePath(np.stack([phis, np.concatenate([up, np.zeros_like(back)])], axis=1))


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of u with the same row of v.

    A stack of 1 x 3 by 3 x 1 products goes through the BLAS dot that
    np.dot uses for a single pair, so each value is that of np.dot.
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def solid_angle(path: SpherePath) -> float:
    """Signed solid angle enclosed by a closed path, in (-4 pi, 4 pi).

    Positive for counterclockwise traversal seen from the +z pole.  Each
    edge contributes the signed solid angle of the spherical triangle
    (pole, v_k, v_k+1) by the van Oosterom-Strackee formula, summed in
    vertex order.  A loop with fewer than 3 distinct points (at 9-digit
    rounding), such as one pinned at the pole, encloses nothing: 0.0.
    """
    pts = path.points()[:-1]
    if len(set(map(tuple, np.round(pts, 9).tolist()))) < 3:
        return 0.0
    nxt = np.roll(pts, -1, axis=0)
    # the dot products with the pole (0, 0, 1) are z components
    num = np.cross(pts, nxt)[:, 2]
    den = 1.0 + pts[:, 2] + _row_dots(pts, nxt) + nxt[:, 2]
    total = 0.0
    for y, x in zip(num.tolist(), den.tolist()):
        total += 2.0 * math.atan2(y, x)
    if not -4.0 * math.pi < total < 4.0 * math.pi:
        raise ValueError(f"winding out of supported range: {total}")
    return total


def berry_phase(path: SpherePath, n: int, m: int) -> float:
    """Discrete geometric phase of mode (n, m) around a closed path.

    Phi = -Arg prod <psi_k|psi_{k+1}> over the cycle of vertex states;
    converges to -(l/2) * solid_angle with l = n - m.
    """
    verts = path.vertices[:-1]
    if len(verts) < 3:
        raise ValueError("need at least 3 path vertices")
    alphas, which = np.unique(verts[:, 1], return_inverse=True)
    # the basis is unitary, so overlaps in its coordinates are the same
    w, lz, _ = lg_expansion(hlg_blocks(n, m, alphas), np.zeros(0))
    states = w[which] * np.exp(-1j * np.outer(verts[:, 0], lz))
    overlaps = np.einsum("ij,ij->i", states.conj(), np.roll(states, -1, axis=0))
    coarse = np.flatnonzero(np.abs(overlaps) < MIN_OVERLAP)
    if coarse.size:
        k = int(coarse[0])
        raise ResolutionError(
            f"overlap magnitude {abs(overlaps[k]):.2e} at segment {k}: path too coarse"
        )
    return -cmath.phase(complex(np.prod(overlaps)))
