"""Write every file the benchmark workloads produce, plus two verify reports.

    python3 tools/write_outputs.py DIR

Runs ``als.cli.main`` in-process, from this checkout's ``src``, for every
call that the certify, render and transport workloads of
``bench/workloads.py`` make at seeds 0, 1 and 2, each into
``DIR/<workload>-<seed>/``, and then ``verify --max-order 10`` and
``--max-order 20`` into ``DIR/verify-10.json`` and ``DIR/verify-20.json``.
Every output is bit-stable, so two trees written by the same code compare
equal under ``diff -r``, and so do those of a change and its parent when the
change leaves every output alone.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from als.cli import main  # noqa: E402  (sets the BLAS thread count before numpy loads)
import workloads  # noqa: E402


def write(out: Path) -> None:
    """Write the workload files of seeds 0-2 and the two verify reports under ``out``."""
    calls = []
    for name in workloads.NAMES:
        for seed in (0, 1, 2):
            (out / f"{name}-{seed}").mkdir(parents=True, exist_ok=True)
            calls += workloads.plan(name, seed, out / f"{name}-{seed}").calls
    calls += [["verify", "--max-order", str(order), "--out", str(out / f"verify-{order}.json")] for order in (10, 20)]
    for args in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            main(args, standalone_mode=False)


if __name__ == "__main__":
    write(Path(sys.argv[1]))
