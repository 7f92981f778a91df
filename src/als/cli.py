"""Command-line surface: density/table/verify/berry/decompose.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.

Angles are accepted in radians or as pi fractions ("pi/8", "3pi/16",
"-pi/4").  Anywhere --alpha is accepted, --beta may be given instead and
is converted through the charge-dependent ellipticity map (--charge
electron|positron).

The library computes in natural units.  ``_in_units`` alone applies
--omega (energies) and --rho-h (lengths, r^2, densities); --t is in units
of 1/omega, so the phases of ``decompose`` do not depend on --omega.

The library constrains alpha to [0, pi/2].  ``density`` and ``decompose``
fold other values using the exact relabeling symmetries (alpha + pi is
the same mode up to a global sign, alpha + pi/2 swaps the Cartesian
indices) and record the folding in the sidecar; ``table`` and ``berry``
reject them as usage errors.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import contextmanager

import click
import numpy as np

from . import __version__
from . import verify as verify_mod
from .berry import berry_phase, latitude_loop, polar_loop, solid_angle, wrap_phase
from .gstate import gram
from .modes import ORDER_CAP, ModeIndex, beta_to_alpha, check_alpha, hlg_block, hlg_state, level_density, level_modes, lg_expansion, rotate_block
from .observables import energy, mean_lz, mean_r2, sweep
from .output import fmt, write_grid_csv, write_json, write_table_csv
from .specfun import cell_centres


class IOFailure(click.ClickException):
    exit_code = 3


@contextmanager
def _usage_errors():
    """A library ValueError raised by user input is a usage error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc))


@contextmanager
def _io_errors():
    """A failed write is an I/O error (exit 3)."""
    try:
        yield
    except OSError as exc:
        raise IOFailure(f"cannot write output: {exc}")


class _FiniteFloat(click.ParamType):
    """A finite float above ``bound``, or also at it when ``closed``."""

    name = "float"

    def __init__(self, bound: float, closed: bool):
        self.bound = bound
        self.closed = closed

    def convert(self, value, param, ctx):
        x = click.FLOAT.convert(value, param, ctx)
        above = x >= self.bound if self.closed else x > self.bound
        if not (math.isfinite(x) and above):
            op = ">=" if self.closed else ">"
            limit = f" {op} {self.bound:g}" if math.isfinite(self.bound) else ""
            self.fail(f"{value!r} is not a finite number{limit}", param, ctx)
        return x


_FINITE = _FiniteFloat(-math.inf, closed=False)
_POSITIVE = _FiniteFloat(0.0, closed=False)
_NON_NEGATIVE = _FiniteFloat(0.0, closed=True)


_ANGLE_RE = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?P<coef>\d+(?:\.\d*)?)?\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+(?:\.\d*)?))?\s*$",
    re.IGNORECASE,
)


class _Angle(click.ParamType):
    """Angle option type: finite radians from a float or a pi fraction like '3pi/16'."""

    name = "angle"

    def convert(self, value, param, ctx):
        try:
            angle = float(value)
        except ValueError:
            match = _ANGLE_RE.match(value)
            den = float(match.group("den") or 1.0) if match else 0.0
            if not den:
                self.fail(f"cannot parse angle {value!r}: use radians or a pi fraction like pi/8", param, ctx)
            angle = math.pi * float(match.group("coef") or 1.0) / den
            if match.group("sign") == "-":
                angle = -angle
        if not math.isfinite(angle):
            self.fail(f"angle {value!r} is not finite", param, ctx)
        return angle


parse_angle = _Angle()


def _resolve_mode(n, m, nr, l) -> ModeIndex:
    cartesian = n is not None or m is not None
    twisted = nr is not None or l is not None
    if cartesian == twisted:
        raise click.UsageError("give one mode, as either --n/--m or --nr/--l")
    if cartesian and None in (n, m):
        raise click.UsageError("--n and --m must be given together")
    if twisted and None in (nr, l):
        raise click.UsageError("--nr and --l must be given together")
    with _usage_errors():
        return ModeIndex(n, m) if cartesian else ModeIndex.from_twisted(nr, l)


def _resolve_alpha(alpha, beta, sign_e) -> float:
    if (alpha is None) == (beta is None):
        raise click.UsageError("give exactly one of --alpha or --beta")
    if beta is None:
        return alpha
    with _usage_errors():
        return beta_to_alpha(beta, sign_e)


def fold_alpha(alpha: float, n: int, m: int) -> tuple[float, int, int, bool]:
    """Fold alpha into [0, pi/2] using the exact relabeling symmetries.

    alpha + pi reproduces the mode up to a global sign; alpha + pi/2
    equals the (m, n) mode up to a global sign.  Returns
    (alpha', n', m', folded?).
    """
    a = alpha % math.pi
    folded = abs(a - alpha) > 1e-12
    if a > 0.5 * math.pi:
        a -= 0.5 * math.pi
        n, m = m, n
        folded = True
    return a, n, m, folded


_RADII = 1025  # samples of the radial profile
_ANGLES = 4096  # samples of the peak circle


def classify_pattern(vec: np.ndarray, grid: np.ndarray, extent: float) -> dict:
    """Node-count heuristic separating striped, ring and spot densities.

    ``grid`` is the density of the level vector ``vec`` on a symmetric
    cell-centered grid over [-extent, extent]^2.  It is read at its
    brightest cell only, for the peak and its radius r_peak; all else
    comes from the vector, through one ``lg_expansion`` call at _RADII radii
    out to the grid's edge or to sqrt(N+1) + 4, beyond which the density is
    below 1e-21 of its maximum, and at r_peak.  Radial nodes: the exact
    angular mean of the density, sum_k |w_k|^2 |lg_k|^2, on those radii.
    Angular nodes: |psi|^2 = |sum_k w_k lg_k(r_peak) exp(i lz_k t)|^2, one
    FFT, at _ANGLES equal steps t round the circle of radius r_peak (2,048
    steps merge two lobes of (8, 9) at pi/16 on 512^2 cells over extent 6).  A
    node run is a rising edge of the "low" mask (below 2% of the maximum).
    Striped patterns show >= 2 angular node runs, rings show none and stay
    azimuthally flat, a density whose brightest cell lies within two cells
    of the origin is a spot.  A grid that holds no density at all (the mode
    lies between the cell centers or underflows) is empty.
    ``center_density`` is |psi(0, 0)|^2 / peak from the lz = 0 term alone,
    the only Laguerre-Gauss mode nonzero at the origin: exactly 0 at odd
    order, and above 1 when the peak falls between cell centres.
    """
    peak_at = int(np.argmax(grid))
    peak = float(grid.flat[peak_at])
    if peak == 0:
        return {
            "classification": "empty",
            "angular_node_count": 0,
            "radial_node_count": 0,
            "center_density": 0.0,
        }
    ny, nx = grid.shape
    cell = 2 * extent / nx
    x, y = cell_centres(nx, -extent, extent), cell_centres(ny, -extent, extent)
    r_peak = float(np.hypot(x[peak_at % nx], y[peak_at // nx]))

    # radial nodes: low runs inside the significant support; a run from r = 0 is none
    radii = np.linspace(0.0, min(extent, math.sqrt(len(vec)) + 4.0), _RADII)
    w, lz, lg = lg_expansion(vec, np.append(radii, r_peak))
    profile = np.einsum("k,ki->i", w.real**2 + w.imag**2, lg.real[:, :-1] ** 2 + lg.imag[:, :-1] ** 2)
    radial_nodes = 0
    if profile.max() > 0:
        k_hi = int(np.nonzero(profile > 0.02 * profile.max())[0].max())
        low = profile[: k_hi + 1] < 0.02 * profile.max()
        radial_nodes = int(np.count_nonzero(low[1:] & ~low[:-1]))

    center = float(np.sum(np.abs(w[lz == 0] * lg[lz == 0, 0]) ** 2))
    common = {"radial_node_count": radial_nodes, "center_density": center / peak}
    if r_peak <= 2.0 * cell:
        # brightest point at the origin: no meaningful peak circle
        return {"classification": "spot", "angular_node_count": 0, **common}

    # angular nodes: cyclic, so a run may wrap past angle 0; a ring low all round counts one.
    # psi = exp(i N t) sum_k w_k lg_k exp(-2 i k t) on equal steps t is a DFT
    terms = np.zeros(_ANGLES, dtype=complex)
    terms[len(vec) - 1 - lz] = w * lg[:, -1]
    ang = np.abs(np.fft.fft(terms)) ** 2
    low = ang < 0.02 * ang.max()
    angular_nodes = int(np.count_nonzero(low & ~np.roll(low, 1))) or int(low.all())

    if angular_nodes >= 2:
        classification = "striped"
    elif angular_nodes == 0 and ang.min() > 0.5 * ang.max():
        classification = "ring"
    else:
        classification = "mixed"
    return {"classification": classification, "angular_node_count": angular_nodes, **common}


# A basis weight further than this below 1 is flagged as truncated; a grid
# norm further than this above 1 as undersampled, below 1 as truncated.
_TRUNCATION_TOL = 1e-6


def _in_units(natural, scale: float, what: str):
    """A natural-unit result times ``scale`` (a unit or --t); exit 2 unless finite.

    Every command calls it before its first write, so a rejection leaves no file.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = natural * scale
    if not np.isfinite(scaled).all():
        raise click.UsageError(f"{what} is not a finite number for these inputs")
    return scaled


def _density(levels, extent: float, points: int, rho_h: float):
    """|psi|^2 of the level vectors on the grid, also in units of rho_h, its norm check and its echo note."""
    centres = cell_centres(points, -extent, extent)
    grid = level_density(levels, centres, centres)
    values = _in_units(grid, 1.0 / rho_h / rho_h, "density / rho_h^2")
    cell = 2 * extent / points
    norm = float(grid.sum() * (cell * cell))
    if norm > 1.0 + _TRUNCATION_TOL:
        return grid, values, norm, " (undersampled)"
    return grid, values, norm, " (truncated)" if norm < 1.0 - _TRUNCATION_TOL else ""


def _grid_bounds(extent: float, points: int, rho_h: float) -> tuple[tuple[float, ...], dict]:
    """CSV bounds and sidecar ``grid`` block in units of rho_h, checked before evaluation."""
    if not math.isfinite(extent * extent):
        raise click.UsageError(f"--extent {extent:g} is too large: its square overflows")
    half = _in_units(extent, rho_h, "extent x rho_h")
    bounds = (-half, half, -half, half)
    return bounds, dict(zip(("x_min", "x_max", "y_min", "y_max"), bounds), nx=points, ny=points)


class _Commands(click.Group):
    """The command group: a request too large to allocate is a usage error (exit 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MemoryError as exc:
            raise click.UsageError(f"inputs too large: {exc}")


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="als")
def main():
    """Asymmetric Landau states: densities, observables, exact checks."""


_mode_options = [
    click.option("--n", type=int, default=None, help="Cartesian index n."),
    click.option("--m", type=int, default=None, help="Cartesian index m."),
    click.option("--nr", type=int, default=None, help="Radial quantum number."),
    click.option("--l", type=int, default=None, help="Angular momentum projection."),
]

_charge_option = click.option(
    "--charge", "sign_e", type=click.Choice(["electron", "positron"]), default="electron",
    callback=lambda ctx, param, value: -1 if value == "electron" else +1,
    help="Particle charge; sets sign_e and the beta -> alpha map.",
)
_omega_option = click.option("--omega", type=_POSITIVE, default=1.0, help="Energy unit; scales energy outputs.")
_rho_option = click.option("--rho-h", type=_POSITIVE, default=1.0, help="Length unit; scales bounds, r^2 and densities.")


def add_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func

    return wrap


@main.command()
@add_options(_mode_options)
@click.option("--alpha", type=parse_angle, default=None, help="Symmetry angle (radians or pi fraction).")
@click.option("--beta", type=float, default=None, help="Field ellipticity in [0, 1].")
@_charge_option
@click.option("--phi", type=parse_angle, default="0", help="Rotation angle of the mode axes.")
@click.option("--extent", type=_POSITIVE, default=5.0, help="Grid half-width in units of rho_h.")
@click.option("--points", type=click.IntRange(min=2), default=512, help="Grid points per axis.")
@_omega_option
@_rho_option
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="CSV output path; a .json sidecar is written next to it.")
def density(n, m, nr, l, alpha, beta, sign_e, phi, extent, points, omega, rho_h, out):
    """Export a probability density grid with a JSON sidecar."""
    mode = _resolve_mode(n, m, nr, l)
    alpha_in = _resolve_alpha(alpha, beta, sign_e)
    a, nn, mm, folded = fold_alpha(alpha_in, mode.n, mode.m)
    used = ModeIndex(nn, mm)
    bounds, grid_spec = _grid_bounds(extent, points, rho_h)

    vec = rotate_block(hlg_block(used.n, used.m, a), phi)
    grid, values, norm, note = _density([vec], extent, points, rho_h)
    pattern = classify_pattern(vec, grid, extent)
    if norm > 1.0 + _TRUNCATION_TOL:
        # an undersampled grid can make a ring look like a spot
        pattern["classification"] = "unresolved"

    sidecar = {
        "mode": {"n": used.n, "m": used.m, "n_r": used.n_r, "l": used.l},
        "alpha": a,
        "phi": phi,
        "grid": grid_spec,
        "norm_check": norm,
        "truncation_warning": bool(note),
        "units": {"omega": omega, "rho_h": rho_h},
        "pattern": pattern,
    }
    if folded:
        sidecar["alpha_input"] = alpha_in
        sidecar["mode_input"] = {"n": mode.n, "m": mode.m}

    with _io_errors():
        write_grid_csv(out, values, *bounds)
        write_json((out[:-4] if out.endswith(".csv") else out) + ".json", sidecar)
    click.echo(f"wrote {out} (norm check {norm:.9f}, pattern {pattern['classification']}){note}")


@main.command()
@add_options(_mode_options)
@click.option("--alpha-min", type=parse_angle, default="0")
@click.option("--alpha-max", type=parse_angle, default="pi/4")
@click.option("--steps", type=click.IntRange(min=1), default=16, help="Number of alpha rows.")
@_charge_option
@_omega_option
@_rho_option
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def table(n, m, nr, l, alpha_min, alpha_max, steps, sign_e, omega, rho_h, out):
    """Observable table over an alpha sweep: closed forms, exact values, deltas."""
    mode = _resolve_mode(n, m, nr, l)
    with _usage_errors():
        check_alpha(alpha_min)
        check_alpha(alpha_max)
    if alpha_min > alpha_max:
        raise click.UsageError("sweep bounds must satisfy alpha-min <= alpha-max")

    header = [
        "alpha_rad",
        "energy_closed_omega", "energy_exact_omega", "energy_delta",
        "r2_closed_rhoH2", "r2_exact_rhoH2", "r2_delta",
        "lz_closed_hbar", "lz_exact_hbar", "lz_delta",
    ]
    e_c = _in_units(energy(mode.n_r, mode.l, sign_e), omega, "energy x omega")
    r_c = _in_units(mean_r2(mode.n_r, mode.l), rho_h * rho_h, "r^2 x rho_h^2")
    alphas = np.linspace(alpha_min, alpha_max, steps)
    e_x, r_x, lz_x = np.array(sweep(mode.n, mode.m, alphas, sign_e)).T
    e_x = _in_units(e_x, omega, "energy x omega")
    r_x = _in_units(r_x, rho_h * rho_h, "r^2 x rho_h^2")
    rows = []
    for a, e, r, lz in zip(alphas.tolist(), e_x.tolist(), r_x.tolist(), lz_x.tolist()):
        lz_c = mean_lz(mode.l, a)
        rows.append([a, e_c, e, e - e_c, r_c, r, r - r_c, lz_c, lz, lz - lz_c])
    with _io_errors():
        write_table_csv(out, header, rows)
    click.echo(f"wrote {out} ({steps} rows)")


@main.command()
@click.option("--suites", type=str, default=",".join(verify_mod.SUITES), help="Comma-separated suite names.")
@click.option("--max-order", type=click.IntRange(0, ORDER_CAP), default=10)
@click.option("--tol", type=_NON_NEGATIVE, default=None, help="Override every identity tolerance.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="JSON report path.")
def verify(suites, max_order, tol, out):
    """Run identity suites; exit 0 only if every residual is in tolerance."""
    names = [s.strip() for s in suites.split(",") if s.strip()]
    with _usage_errors():
        report = verify_mod.run(names, max_order=max_order, tol=tol)
    for r in report["results"]:
        flag = "PASS" if r["pass"] else "FAIL"
        click.echo(f"{flag} [{r['suite']}] {r['identity']}: residual {r['residual']:.3e} (tol {r['tolerance']:.1e})")
    s = report["summary"]
    click.echo(f"{s['passed']}/{s['total']} identities passed")
    if out is not None:
        for r in report["results"]:
            if not math.isfinite(r["residual"]):
                r["residual"] = None  # JSON has no NaN or infinity
        with _io_errors():
            write_json(out, report)
        click.echo(f"wrote {out}")
    if not s["all_pass"]:
        sys.exit(1)


@main.command()
@add_options(_mode_options)
@click.option("--loop", "family", type=click.Choice(["latitude", "polar"]), default="latitude")
@click.option("--alpha", type=parse_angle, default=None, help="Latitude of the constant-alpha loop.")
@click.option("--beta", type=float, default=None, help="Latitude given as a field ellipticity.")
@_charge_option
@click.option("--phi0", type=parse_angle, default=None, help="Meridian of the polar loop (default 0).")
@click.option("--segments", type=int, default=2000)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def berry(n, m, nr, l, family, alpha, beta, sign_e, phi0, segments, out):
    """Geometric phase of a mode around a closed loop on the mode sphere."""
    mode = _resolve_mode(n, m, nr, l)
    if family == "polar" and (alpha is not None or beta is not None):
        raise click.UsageError("--alpha/--beta set the latitude loop; the polar loop takes --phi0")
    if family == "latitude" and phi0 is not None:
        raise click.UsageError("--phi0 sets the polar loop; the latitude loop takes --alpha or --beta")
    with _usage_errors():
        if family == "latitude":
            if alpha is None and beta is None:
                alpha = math.pi / 8
            a = _resolve_alpha(alpha, beta, sign_e)
            check_alpha(a)
            path = latitude_loop(a, segments)
            loop_desc = {"family": "latitude", "alpha": a}
        else:
            phi0 = 0.0 if phi0 is None else phi0
            path = polar_loop(phi0, segments)
            loop_desc = {"family": "polar", "phi0": phi0}
        omega_loop = solid_angle(path)
        phase = berry_phase(path, mode.n, mode.m)
    expected = -0.5 * mode.l * omega_loop
    winding = round((phase - expected) / (2.0 * math.pi))
    report = {
        "loop": loop_desc,
        "mode": {"n": mode.n, "m": mode.m, "n_r": mode.n_r, "l": mode.l},
        "segments": segments,
        "solid_angle": omega_loop,
        "berry_phase": phase,
        "expected_phase": expected,
        "deviation": abs(wrap_phase(phase - expected)),
        "winding": winding,
    }
    click.echo(
        f"solid angle {fmt(omega_loop)}, phase {fmt(phase)}, "
        f"-(l/2)*Omega {fmt(expected)}, deviation {report['deviation']:.3e}, winding {winding}"
    )
    if out is not None:
        with _io_errors():
            write_json(out, report)
        click.echo(f"wrote {out}")


@main.command()
@click.option("--nr", type=int, required=True, help="Radial index of the input twisted mode.")
@click.option("--l", type=int, required=True, help="Angular momentum of the input twisted mode.")
@click.option("--alpha", type=parse_angle, default=None, help="Symmetry angle of the analysis basis.")
@click.option("--beta", type=float, default=None)
@_charge_option
@click.option("--t", type=_FINITE, default=0.0, help="Evolution time in units of 1/omega.")
@click.option("--max-order", type=click.IntRange(0, ORDER_CAP), default=10, help="Basis cut: include all n+m <= max-order.")
@click.option("--extent", type=_POSITIVE, default=5.0)
@click.option("--points", type=click.IntRange(min=2), default=256)
@_omega_option
@_rho_option
@click.option("--out-prefix", type=str, required=True, help="Writes <prefix>_coefficients.csv, <prefix>_density.csv, <prefix>.json.")
def decompose(nr, l, alpha, beta, sign_e, t, max_order, extent, points, omega, rho_h, out_prefix):
    """Expand a twisted mode over the asymmetric basis and evolve the phases."""
    mode_in = _resolve_mode(None, None, nr, l)
    alpha_in = _resolve_alpha(alpha, beta, sign_e)
    # folding only moves the analysis angle; the basis runs over all modes
    # anyway, so the index relabeling is absorbed by the coefficient table
    a, _, _, folded = fold_alpha(alpha_in, mode_in.n, mode_in.m)
    bounds, grid_spec = _grid_bounds(extent, points, rho_h)

    basis = [ModeIndex(n_i, total - n_i) for total in range(max_order + 1) for n_i in range(total + 1)]
    natural = np.array([energy(md.n_r, md.l, sign_e) for md in basis])
    angles = _in_units(natural, t, "energy x t").tolist()
    energies = _in_units(natural, omega, "energy x omega").tolist()
    lg = hlg_state(mode_in.n, mode_in.m, 0.25 * math.pi)
    coeff_rows = []
    frames = [level_modes(order, [a])[0] for order in range(max_order + 1)]
    levels = [np.zeros(order + 1, dtype=complex) for order in range(max_order + 1)]
    coeffs = gram([hlg_state(md.n, md.m, a) for md in basis], [lg])[:, 0].tolist()
    sum_abs2 = 0.0
    for md, c, angle, e_omega in zip(basis, coeffs, angles, energies):
        ct = c * complex(math.cos(angle), -math.sin(angle))
        sum_abs2 += abs(c) ** 2
        coeff_rows.append([md.n, md.m, md.l, md.n_r, e_omega, c.real, c.imag, abs(c) ** 2, ct.real, ct.imag])
        if abs(c) > 1e-14:
            levels[md.n + md.m] += ct * frames[md.n + md.m][md.m]

    _, values, norm, note = _density(levels, extent, points, rho_h)
    if sum_abs2 < 1.0 - _TRUNCATION_TOL:
        note = note or " (truncated)"

    sidecar = {
        "input_mode": {"n_r": nr, "l": l, "n": mode_in.n, "m": mode_in.m},
        "alpha": a,
        "time": t,
        "sign_e": sign_e,
        "max_order": max_order,
        "sum_abs2": sum_abs2,
        "truncation_warning": bool(note),
        "grid": grid_spec,
        "norm_check": norm,
        "units": {"omega": omega, "rho_h": rho_h},
    }
    if folded:
        sidecar["alpha_input"] = alpha_in
    header = ["n", "m", "l", "n_r", "energy_omega", "re_c", "im_c", "abs2_c", "re_c_t", "im_c_t"]
    with _io_errors():
        write_table_csv(f"{out_prefix}_coefficients.csv", header, coeff_rows)
        write_grid_csv(f"{out_prefix}_density.csv", values, *bounds)
        write_json(f"{out_prefix}.json", sidecar)
    click.echo(f"wrote {out_prefix}_* (sum |c|^2 = {sum_abs2:.9f}{note})")


if __name__ == "__main__":
    main()
