"""One measured pass, run in a fresh Python process by run.py.

    python3 bench/child.py SPEC.json

SPEC names the checkout's `src` directory, the CLI argument lists of the
pass, whether to trace, and where to write the result (and the spans).
The child times the import of `als.cli` plus a cold `als --version`
(set-up), then calls `als.cli.main` in-process once per argument list and
times the whole pass.  With "setup_only" it stops after set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _invoke(main, args) -> tuple[int, str]:
    """Run one CLI call; return (exit code, error text)."""
    try:
        main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return code, "" if code == 0 else f"exit {exc.code}"
    except Exception as exc:  # a failed call is counted, not fatal
        return 1, f"{type(exc).__name__}: {exc}"
    return 0, ""


def run(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import als.cli

    version_out = io.StringIO()
    with contextlib.redirect_stdout(version_out):
        version_code, _ = _invoke(als.cli.main, ["--version"])
    setup_s = time.perf_counter() - t0
    if src not in Path(als.cli.__file__).resolve().parents:
        raise SystemExit(f"imported als from {als.cli.__file__}, not from {src}")
    result = {
        "setup_s": setup_s,
        "version_ok": version_code == 0 and "version" in version_out.getvalue(),
    }
    if spec.get("setup_only"):
        return result

    tracer = None
    if spec.get("trace"):
        tracer = Tracer(spec["run_id"])
        tracer.install()

    calls = []
    with contextlib.redirect_stdout(io.StringIO()):
        cpu0 = _cpu_s()
        w0 = time.perf_counter_ns()
        for args in spec["calls"]:
            if tracer is None:
                calls.append(_invoke(als.cli.main, args))
            else:
                calls.append(tracer.root(_invoke, als.cli.main, args))
        wall_ns = time.perf_counter_ns() - w0
        cpu_s = _cpu_s() - cpu0

    result.update(
        wall_s=wall_ns * 1e-9,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        calls=[{"argv": a, "code": c, "error": e} for a, (c, e) in zip(spec["calls"], calls)],
    )
    if tracer is not None:
        tracer.write(spec["spans"])
        result["counts"] = dict(tracer.counts)
    return result


if __name__ == "__main__":
    spec_path = Path(sys.argv[1])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    out = run(spec)
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")
