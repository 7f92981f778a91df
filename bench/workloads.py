"""Workload inputs: the `als` CLI calls each workload makes, drawn from a seed.

Seed 0 gives the reference inputs.  Every other seed draws the free inputs
from a generator seeded with the workload name and the seed, inside a fixed
size class: the same n + m and |l|, grid size, segment count, basis cut and
sweep length, so every seed measures the same amount of work.

The seed varies the decomposition (alpha, t, sign of l) and the Berry loop
(latitude alpha, sign of l).  The alpha = pi/4 density and the alpha sweep
of the table keep their reference inputs on every seed: they carry the
checks with the largest error-to-tolerance ratio of their workloads, and
that ratio moves with every rounding pattern, so drawing their inputs would
turn `worst_headroom` into a function of the seed instead of the code.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("certify", "render", "transport")


@dataclass(frozen=True)
class Sizes:
    verify_order: int
    density: tuple[int, int, int]  # n_r, l, points per axis
    decompose: tuple[int, int, int, int]  # n_r, |l|, max order, points per axis
    berry: tuple[int, int, int]  # n_r, |l|, segments
    table: tuple[int, int, int]  # n_r, l, alpha steps


FULL = Sizes(
    verify_order=10,
    density=(5, 8, 1024),
    decompose=(2, 4, 16, 512),
    berry=(0, 10, 2000),
    table=(1, 8, 256),  # order 10; bench/README.md says why
)

# Reduced sizes for the harness smoke test: order 4, a 64^2 grid, 50 segments.
SMOKE = Sizes(
    verify_order=4,
    density=(1, 2, 64),
    decompose=(0, 2, 4, 64),
    berry=(0, 4, 50),
    table=(1, 2, 8),
)


@dataclass
class Plan:
    """CLI argument lists of one pass, and the inputs the checks need."""

    calls: list[list[str]]
    params: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def plan(workload: str, seed: int, out: Path, sizes: Sizes = FULL) -> Plan:
    """The CLI calls of one pass of `workload`, writing into directory `out`."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{workload}:{seed}")
    default = seed == 0

    if workload == "certify":
        # verify fixes its own samples, so the seed does not enter.
        report = out / "report.json"
        return Plan(
            [["verify", "--max-order", str(sizes.verify_order), "--out", str(report)]],
            {"max_order": sizes.verify_order, "report": report},
        )

    if workload == "render":
        nr, l, points = sizes.density
        dnr, dal, dorder, dpoints = sizes.decompose
        dl = dal if default else rng.choice((dal, -dal))
        alpha = math.pi / 8 if default else rng.uniform(math.pi / 16, 7 * math.pi / 16)
        t = 0.5 if default else rng.uniform(0.0, 1.0)
        density, prefix = out / "density.csv", out / "decompose"
        calls = [
            ["density", "--nr", str(nr), f"--l={l}", "--alpha", "pi/4",
             "--points", str(points), "--out", str(density)],
            ["decompose", "--nr", str(dnr), f"--l={dl}", "--alpha", _num(alpha), "--t", _num(t),
             "--max-order", str(dorder), "--points", str(dpoints), "--out-prefix", str(prefix)],
        ]
        params = {
            "density": {"nr": nr, "l": l, "points": points, "csv": density},
            "decompose": {"nr": dnr, "l": dl, "alpha": alpha, "t": t, "max_order": dorder,
                          "points": dpoints, "prefix": prefix},
        }
        return Plan(calls, params)

    nr, al, segments = sizes.berry
    l = al if default else rng.choice((al, -al))
    alpha = math.pi / 8 if default else rng.uniform(math.pi / 16, 3 * math.pi / 16)
    tnr, tl, steps = sizes.table
    berry, table = out / "berry.json", out / "table.csv"
    calls = [
        ["berry", "--nr", str(nr), f"--l={l}", "--loop", "latitude", "--alpha", _num(alpha),
         "--segments", str(segments), "--out", str(berry)],
        ["table", "--nr", str(tnr), f"--l={tl}", "--alpha-min", "0", "--alpha-max", "pi/4",
         "--steps", str(steps), "--out", str(table)],
    ]
    params = {
        "berry": {"nr": nr, "l": l, "alpha": alpha, "segments": segments, "report": berry},
        "table": {"nr": tnr, "l": tl, "alpha_min": 0.0, "alpha_max": math.pi / 4,
                  "steps": steps, "csv": table},
    }
    return Plan(calls, params)
