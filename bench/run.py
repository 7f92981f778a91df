"""Benchmark of the `als` CLI: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload {certify,render,transport} \
        --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client.  This script starts one fresh
Python child per pass, one after another; each child imports `als.cli`
from the checkout's `src/` and calls `als.cli.main` in-process for every
CLI call of the workload (see child.py).  Passes repeat until the next one
would end after --seconds (at least MIN_PASSES).

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics.
The first pass's output files are checked against independent oracles
(checks.py); every later pass must write byte-identical files.  The last
line of standard output is the result object; the lines before it give
quartiles, pass counts and every check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import read_spans, span_times  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two untraced, two traced
CHILD_TIMEOUT_S = 60
# Counters that must repeat exactly for one commit, workload, seed and size.
EXACT_SUFFIXES = (".calls", ".term_pairs", ".term_cells", ".terms_out", ".bytes", ".segments")
# The traced wall time may exceed the sum of span self times by this share
# plus this many seconds: only the pass loop itself runs outside the root spans.
COVERAGE_SLACK_SHARE = 1e-3
COVERAGE_SLACK_S = 1e-3


class HarnessError(Exception):
    """The benchmark cannot produce a valid result."""


def _child(spec: dict, scratch: Path) -> dict:
    scratch.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, result=str(scratch / "result.json"))
    spec_path = scratch / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads((scratch / "result.json").read_text(encoding="utf-8"))


def _hash_files(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def _code_hash() -> str:
    h = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files) + sorted(BENCH.glob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _sizes_tag(sizes: workloads.Sizes) -> str:
    return hashlib.sha256(repr(sizes).encode()).hexdigest()[:8]


def _check_counts(counts: dict, registry: Path, key: str) -> None:
    """Fail loudly when a work counter differs from an earlier pass or run."""
    exact = {k: v for k, v in counts.items() if k.endswith(EXACT_SUFFIXES)}
    path = registry / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        diff = {k for k in set(before) | set(exact) if before.get(k) != exact.get(k)}
        if diff:
            raise HarnessError(
                "work counters differ between runs of the same code and seed: "
                + ", ".join(f"{k} {before.get(k)} != {exact.get(k)}" for k in sorted(diff))
            )
    else:
        registry.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(exact, sort_keys=True), encoding="utf-8")


def measure(workload, seed, seconds, trace, sizes=workloads.FULL, work=ROOT / ".bench_work"):
    """Run one workload; return (result object, report lines)."""
    src = ROOT / "src"
    if not (src / "als" / "cli.py").is_file():
        raise HarnessError(f"no als package under {src}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_dir = work / f"{workload}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # Unmeasured warm-up: compiles the bytecode caches once per checkout.
    warm = _child({"src": str(src), "setup_only": True}, run_dir / "warmup")
    if not warm["version_ok"]:
        raise HarnessError("als --version failed")

    lines = []
    call_errors: dict[int, str] = {}
    found: list[checks.Check] = []
    first_hashes = None
    stable = covered = True
    walls, cpus, rss, setups, pass_s = [], [], [], [], []
    traced_walls, self_times, suite_times = [], [], []
    counts = None
    start = time.monotonic()
    k = 0
    while True:
        t0 = time.monotonic()
        traced = bool(trace) and k % 2 == 1
        pass_dir = run_dir / f"pass{k}"
        pass_dir.mkdir()
        plan = workloads.plan(workload, seed, pass_dir, sizes)
        child_spec = {"src": str(src), "calls": plan.calls, "trace": traced,
                      "run_id": f"{workload}-seed{seed}-pass{k}",
                      "spans": str(run_dir / f"spans-pass{k}.tsv")}
        res = _child(child_spec, run_dir / f"child{k}")
        setups.append(res["setup_s"])
        for i, call in enumerate(res["calls"]):
            if call["code"] != 0:
                call_errors.setdefault(i, f"{call['argv'][0]}: {call['error']}")
        if k == 0:
            try:
                found = checks.run(workload, plan.params, src)
                if workload == "transport":
                    deviation = json.loads(Path(plan.params["berry"]["report"]).read_text())["deviation"]
                    lines.append(f"berry report field 'deviation' (recorded unchanged, not used): {deviation!r}")
            except (OSError, ValueError, KeyError, TypeError) as exc:  # missing or malformed output
                found = [checks.flag(f"outputs readable ({type(exc).__name__}: {exc})", False)]
            first_hashes = _hash_files(pass_dir)
        elif _hash_files(pass_dir) != first_hashes:
            stable = False
            lines.append(f"pass {k} wrote files that differ from pass 0")
        shutil.rmtree(pass_dir)

        if traced:
            self_s, total_s = span_times(read_spans(child_spec["spans"]))
            traced_walls.append(res["wall_s"])
            self_times.append(self_s)
            suite_times.append(total_s)
            gap = res["wall_s"] - sum(self_s.values())
            lines.append(f"pass {k}: traced wall minus span self times {gap!r} s")
            if not -1e-9 <= gap <= COVERAGE_SLACK_SHARE * res["wall_s"] + COVERAGE_SLACK_S:
                covered = False
            if counts is None:
                counts = res["counts"]
            elif counts != res["counts"]:
                raise HarnessError("work counters differ between two passes of one run")
        else:
            walls.append(res["wall_s"])
            cpus.append(res["cpu_s"])
            rss.append(res["peak_rss_mb"])
        pass_s.append(time.monotonic() - t0)
        k += 1
        done = time.monotonic() - start
        if k >= (MIN_TRACED_PASSES if trace else MIN_PASSES) and done + statistics.median(pass_s) > seconds:
            break

    # One operation per CLI call of a pass, per check, and for bit-stability
    # (and span coverage) over all passes, so the count does not depend on
    # how many passes fit into --seconds.
    ops = [(f"call {argv[0]} {call_errors.get(i, '')}".rstrip(), i not in call_errors)
           for i, argv in enumerate(plan.calls)]
    ops += [(f"check {c.name}: error {c.error:.3e} tol {c.tol:.1e} headroom {c.headroom:.3e}", c.passed)
            for c in found]
    ops.append((f"bit-stability of {k} passes", stable))
    if trace:
        ops.append(("span self times add up to the traced wall time", covered))
    attempted, failed = len(ops), sum(not ok for _, ok in ops)
    lines += [f"{'PASS' if ok else 'FAIL'} {what}" for what, ok in ops]
    lines.append(f"failed_frac {failed / attempted!r} ({failed} of {attempted} calls and checks failed)")

    if trace:
        _check_counts(counts, work / "counts", f"{workload}-seed{seed}-{_sizes_tag(sizes)}-{_code_hash()}")
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = statistics.median(traced_walls) - statistics.median(walls)
            elif name.endswith(".self_s"):
                value = statistics.median(s.get(name[: -len(".self_s")], 0.0) for s in self_times)
            elif name.startswith("verify.suite_") and name.endswith(".s"):
                value = statistics.median(s.get(name[: -len(".s")], 0.0) for s in suite_times)
            elif name.endswith(EXACT_SUFFIXES):
                value = counts.get(name, 0)
            else:
                raise HarnessError(f"no rule computes per-layer metric {name}")
            metrics[name] = {"value": value, "unit": m["unit"]}
        lines.append(f"traced passes {len(traced_walls)}, untraced passes {len(walls)}, "
                     f"traced wall_s median {statistics.median(traced_walls)!r}")
    else:
        samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups, "peak_rss_mb": rss}
        for name, values in samples.items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            lines.append(f"{name} median {med!r} q1 {q1!r} q3 {q3!r} n {len(values)} samples {values!r}")
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["ok_frac"] = 1.0 - failed / attempted
        values["worst_headroom"] = max((c.headroom for c in found), default=float("nan"))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
