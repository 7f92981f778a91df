"""Record the decomposition reference grid that checks.py compares against.

    python3 bench/record_reference.py

Runs the render workload's `als decompose` call with the seed-0 inputs on
the checkout's `src/`, and stores every STRIDE-th row and column of the
density grid with those inputs in reference/decompose.npz.  The committed
file was recorded on the seed commit of the benchmark; re-recording it on
later code would hide changes in the output.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

STRIDE = 8


def main() -> None:
    import als.cli

    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        plan = workloads.plan("render", 0, Path(tmp))
        c = plan.params["decompose"]
        with contextlib.redirect_stdout(io.StringIO()):
            als.cli.main(plan.calls[1], standalone_mode=False)
        grid, _ = checks.read_grid(f"{c['prefix']}_density.csv")
    np.savez_compressed(
        checks.REFERENCE,
        grid=grid[::STRIDE, ::STRIDE],
        stride=STRIDE,
        **{k: c[k] for k in ("nr", "l", "alpha", "t", "max_order", "points")},
    )
    print(f"wrote {checks.REFERENCE}")


if __name__ == "__main__":
    main()
