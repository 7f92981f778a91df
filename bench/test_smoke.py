"""Smoke test of the benchmark harness at reduced sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload at order 4, a 64^2 grid and 50 segments, untraced and
traced, and checks the result object, the checks, the spans and the
failure paths.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import read_spans  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result, lines = run.measure(workload, 1, 0, 0, workloads.SMOKE, tmp_path)
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] > 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["ok_frac"] == 1.0
    assert 0.0 < values["worst_headroom"] <= 1.0
    assert all(values[k] > 0 for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"))


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_writes_spans_that_cover_the_pass(workload, tmp_path):
    result, lines = run.measure(workload, 1, 0, 1, workloads.SMOKE, tmp_path)
    assert result["correct"], "\n".join(lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["cli.command.self_s"] > 0
    assert values["modes.hlg_state.calls"] > 0 and values["specfun.hermite.calls"] > 0
    spans = read_spans(tmp_path / f"{workload}-seed1" / "spans-pass1.tsv")
    assert {name for _, parent, name, _, _ in spans if parent == 0} == {"cli.command"}
    assert math.isfinite(values["trace.overhead_s"])


def test_changed_counter_fails_loudly(tmp_path):
    run._check_counts({"gstate.apply.calls": 3}, tmp_path, "key")
    run._check_counts({"gstate.apply.calls": 3}, tmp_path, "key")
    with pytest.raises(run.HarnessError, match="gstate.apply.calls"):
        run._check_counts({"gstate.apply.calls": 4}, tmp_path, "key")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
