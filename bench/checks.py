"""Independent correctness checks on the files one pass wrote.

Each check yields an error and a tolerance; it passes when error <= tol,
and error / tol is its headroom.  The oracles do not go through the
library's state algebra:

* render: the alpha = pi/4 density grid against the closed-form
  Laguerre-Gauss density (scipy), and the decomposition grid against the
  paper's finite Hermite sum evaluated with stable Hermite functions, plus
  a grid recorded from the seed commit for the reference inputs;
* transport: the Berry phase against -(l/2) Omega modulo 2 pi, with Omega
  the closed-form area of the geodesic loop, and the table against the
  closed forms;
* certify: the report's schema, its own pass flags and its residuals.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

import jsonschema
import numpy as np
from scipy.special import eval_genlaguerre

REFERENCE = Path(__file__).resolve().parent / "reference" / "decompose.npz"


@dataclass(frozen=True)
class Check:
    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.error <= self.tol)  # NaN fails

    @property
    def headroom(self) -> float:
        return self.error / self.tol


def flag(name: str, ok: bool) -> Check:
    """A yes/no check: headroom 0 when it holds, 2 when it does not."""
    return Check(name, 0.0 if ok else 1.0, 0.5)


def read_grid(path):
    """Grid CSV -> (grid of shape (ny, nx), (x_min, x_max, y_min, y_max))."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline()
        body = fh.read()
    if not head.startswith("# "):
        raise ValueError(f"{path}: missing grid header")
    x_min, x_max, y_min, y_max, nx, ny = head[2:].split(",")
    values = np.array(body.replace(",", " ").split(), dtype=float)
    return values.reshape(int(ny), int(nx)), tuple(map(float, (x_min, x_max, y_min, y_max)))


def cell_centres(n: int, lo: float, hi: float) -> np.ndarray:
    return lo + ((hi - lo) / n) * (np.arange(n) + 0.5)


def read_table(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def rel_max_error(grid: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(grid - ref).max() / ref.max())


def lg_density(nr: int, l: int, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Normalised Laguerre-Gauss density of the alpha = pi/4 mode (n_r, l)."""
    u = 2.0 * (X * X + Y * Y)
    a = abs(l)
    pref = 2.0 * factorial(nr) / (math.pi * factorial(nr + a))
    return pref * u**a * eval_genlaguerre(nr, a, u) ** 2 * np.exp(-u)


def hermite_functions(kmax: int, u: np.ndarray) -> np.ndarray:
    """Normalised Hermite functions h_0..h_kmax at u, by the stable recurrence."""
    h = np.empty((kmax + 1, u.size))
    h[0] = math.pi**-0.25 * np.exp(-0.5 * u * u)
    if kmax:
        h[1] = math.sqrt(2.0) * u * h[0]
    for k in range(1, kmax):
        h[k + 1] = math.sqrt(2.0 / (k + 1)) * u * h[k] - math.sqrt(k / (k + 1)) * h[k - 1]
    return h


def hlg_mode(n: int, m: int, alpha: float, hx: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """Unit-norm mode psi_{n,m}(alpha) on the grid, rows at y, from the paper's sum

        psi = sum_k c_k H_{N-k}(sqrt2 x) H_k(sqrt2 y) e^{-x^2-y^2} / sqrt(pi 2^(N-1) n! m!)

    with c_k = i^k sum_s (-1)^s C(n, k-s) C(m, s) cos^(n-k+2s) sin^(m+k-2s),
    rewritten with Hermite functions so that nothing overflows.
    """
    N = n + m
    ca, sa = math.cos(alpha), math.sin(alpha)
    psi = np.zeros((hy.shape[1], hx.shape[1]), dtype=complex)
    for k in range(N + 1):
        acc = 0.0
        for s in range(max(0, k - n), min(k, m) + 1):
            term = comb(n, k - s) * comb(m, s) * ca ** (n - k + 2 * s) * sa ** (m + k - 2 * s)
            acc += -term if s % 2 else term
        weight = 1j**k * acc * math.sqrt(2.0 * factorial(N - k) * factorial(k) / (factorial(n) * factorial(m)))
        if weight:
            psi += weight * np.outer(hy[k], hx[N - k])
    return psi


def certify(params: dict, src: Path) -> list[Check]:
    report = json.loads(Path(params["report"]).read_text(encoding="utf-8"))
    schema = json.loads((src / "als" / "schemas" / "verify_report.schema.json").read_text(encoding="utf-8"))
    try:
        jsonschema.validate(report, schema)
        valid = True
    except jsonschema.ValidationError:
        valid = False
    results = report.get("results", [])
    summary = report.get("summary", {})
    flags_agree = all(r["pass"] == (r["residual"] <= r["tolerance"]) for r in results)
    passed = sum(1 for r in results if r["pass"])
    return [
        flag("verify.schema", valid),
        flag("verify.all_pass", summary.get("all_pass") is True),
        flag("verify.six_suites_at_order",
             report.get("suites") == ["algebra", "spectra", "observables", "fields", "wigner", "berry"]
             and report.get("max_order") == params["max_order"]),
        flag("verify.summary_consistent",
             flags_agree and summary.get("total") == len(results) and summary.get("passed") == passed),
        Check("verify.worst_identity_residual_over_tol",
              max((r["residual"] / r["tolerance"] for r in results), default=math.nan), 1.0),
    ]


def render(params: dict) -> list[Check]:
    out = []
    d = params["density"]
    grid, (x0, x1, y0, y1) = read_grid(d["csv"])
    X, Y = np.meshgrid(cell_centres(grid.shape[1], x0, x1), cell_centres(grid.shape[0], y0, y1))
    out.append(Check("density.vs_laguerre_gauss", rel_max_error(grid, lg_density(d["nr"], d["l"], X, Y)), 1e-10))
    side = json.loads(Path(d["csv"]).with_suffix(".json").read_text(encoding="utf-8"))
    cell = (x1 - x0) / grid.shape[1] * (y1 - y0) / grid.shape[0]
    out.append(flag("density.sidecar_mode_and_grid",
                    side["mode"]["n_r"] == d["nr"] and side["mode"]["l"] == d["l"]
                    and grid.shape == (d["points"], d["points"])))
    out.append(Check("density.norm_check_vs_grid", abs(side["norm_check"] - grid.sum() * cell), 1e-12))

    c = params["decompose"]
    prefix = Path(c["prefix"])
    side = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    rows = read_table(f"{prefix}_coefficients.csv")
    order = c["max_order"]
    out.append(Check("decompose.sum_abs2", abs(side["sum_abs2"] - 1.0), 1e-9))
    out.append(flag("decompose.complete_basis",
                    len(rows) == (order + 1) * (order + 2) // 2 and side["truncation_warning"] is False))
    out.append(Check("decompose.abs2_column_sum", abs(sum(float(r["abs2_c"]) for r in rows) - side["sum_abs2"]), 1e-12))

    grid, (x0, x1, y0, y1) = read_grid(f"{prefix}_density.csv")
    kmax = max(int(r["n"]) + int(r["m"]) for r in rows)
    hx = hermite_functions(kmax, math.sqrt(2.0) * cell_centres(grid.shape[1], x0, x1))
    hy = hermite_functions(kmax, math.sqrt(2.0) * cell_centres(grid.shape[0], y0, y1))
    psi = np.zeros(grid.shape, dtype=complex)
    for r in rows:
        if abs(complex(float(r["re_c"]), float(r["im_c"]))) > 1e-14:  # the CLI's own cut
            amp = complex(float(r["re_c_t"]), float(r["im_c_t"]))
            psi += amp * hlg_mode(int(r["n"]), int(r["m"]), c["alpha"], hx, hy)
    out.append(Check("decompose.vs_hermite_sum", rel_max_error(grid, np.abs(psi) ** 2), 1e-9))

    ref = np.load(REFERENCE)
    if all(float(ref[k]) == c[k] for k in ("nr", "l", "alpha", "t", "max_order", "points")):
        stride = int(ref["stride"])
        out.append(Check("decompose.vs_seed_commit_grid",
                         rel_max_error(grid[::stride, ::stride], ref["grid"]), 1e-10))
    return out


def wrap_phase(x: float) -> float:
    """x modulo 2 pi, in (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def geodesic_loop_solid_angle(alpha: float, segments: int) -> float:
    """Solid angle of the latitude loop as the CLI builds it.

    The loop is the regular geodesic polygon with `segments` vertices on the
    circle at polar angle theta, cos(theta) = sin(2 alpha).  Split into
    `segments` isosceles triangles with apex angle A = 2 pi / segments at the
    pole, each has base angles B with cot(B) = tan(A / 2) cos(theta), so the
    area is 2 pi + segments (2 B - pi).  It is smaller than the cap
    2 pi (1 - sin 2 alpha) by O(1 / segments^2).
    """
    base = math.atan2(1.0, math.tan(math.pi / segments) * math.sin(2.0 * alpha))
    return 2.0 * math.pi + segments * (2.0 * base - math.pi)


def transport(params: dict) -> list[Check]:
    b = params["berry"]
    report = json.loads(Path(b["report"]).read_text(encoding="utf-8"))
    omega = geodesic_loop_solid_angle(b["alpha"], b["segments"])
    out = [
        flag("berry.report_inputs",
             report["mode"]["l"] == b["l"] and report["mode"]["n_r"] == b["nr"]
             and report["segments"] == b["segments"]),
        Check("berry.solid_angle_vs_geodesic_polygon", abs(report["solid_angle"] - omega), 1e-10),
        Check("berry.phase_vs_minus_half_l_omega_mod_2pi",
              abs(wrap_phase(report["berry_phase"] + 0.5 * b["l"] * omega)), 1e-9),
    ]

    t = params["table"]
    rows = read_table(t["csv"])
    nr, l = t["nr"], t["l"]
    alphas = np.linspace(t["alpha_min"], t["alpha_max"], t["steps"])

    def col(name):
        return np.array([float(r[name]) for r in rows])

    out.append(flag("table.rows", len(rows) == t["steps"]))
    if len(rows) != t["steps"]:
        return out
    closed = {
        "energy": np.full(len(rows), 2 * nr + abs(l) + l + 1.0),  # electron, omega = 1
        "r2": np.full(len(rows), (2 * nr + abs(l) + 1) / 2.0),
        "lz": l * np.sin(2.0 * alphas),
    }
    unit = {"energy": "omega", "r2": "rhoH2", "lz": "hbar"}
    out.append(Check("table.alpha_column", float(np.abs(col("alpha_rad") - alphas).max()), 1e-15))
    for q in ("energy", "r2", "lz"):
        out.append(Check(f"table.{q}_closed_form", float(np.abs(col(f"{q}_closed_{unit[q]}") - closed[q]).max()), 1e-12))
        out.append(Check(f"table.{q}_delta", float(np.abs(col(f"{q}_delta")).max()), 1e-10))
    return out


def run(workload: str, params: dict, src: Path) -> list[Check]:
    if workload == "certify":
        return certify(params, src)
    if workload == "render":
        return render(params)
    return transport(params)
