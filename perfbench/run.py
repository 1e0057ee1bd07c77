"""mazersim benchmark: one command prints every metric and checks outputs.

    python3 perfbench/run.py --workload deep_sin --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports ``mazersim`` from ``src/``
there and writes only under ``.perfbench/``.  With ``--trace 0`` it prints
the end-to-end metrics, with ``--trace 1`` the per-layer ones; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  End-to-end times are adjusted
to one fixed host speed (see hostspeed.py); the wall times are printed on
the ``# wall`` lines.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 7
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "rows_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_program() -> None:
    """Put the checkout's src/ first on the path and import mazersim from it."""
    package = SRC / "mazersim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no mazersim package at {package}")
    sys.path.insert(0, str(SRC))
    import mazersim

    if Path(mazersim.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: mazersim imported from {mazersim.__file__}, not {package}")


def _machine() -> dict:
    import numpy
    import scipy

    import workloads

    return {"nproc": workloads.usable_cpus(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time of fresh interpreters importing mazersim and completing
    the workload's first row: adjusted to the fixed host speed by the
    probes on either side of each, and as wall time.

    The probes and the interpreters run on one CPU, so that they meet the
    same contention; each side's probe time is the median of a few probes,
    since one repeat's adjustment rests on just two of them.
    """
    import hostspeed

    def probe() -> float:
        return statistics.median(hostspeed.probe() for _ in range(SETUP_PROBES))

    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        times, adjusted = [], []
        before = probe()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "first_row.py"), workload, str(seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"set-up probe exited with {proc.returncode}")
            after = probe()
            adjusted.append(hostspeed.scale(before, after) * times[-1])
            before = after
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(adjusted), statistics.median(times)


def _percentiles_ms(latencies: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return 1e3 * deciles[4], 1e3 * deciles[8]


def run(args) -> dict:
    import workloads as wl
    from tracing import PER_LAYER, Tracer

    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = wl.WORKLOADS[args.workload](args.seed, scratch)
    stream = workload.cycles()

    # warm-up: one request of each kind, checked but not timed
    warm = wl.Measurement()
    seen = set()
    for req in next(stream):
        if req.kind not in seen:
            seen.add(req.kind)
            wl.run_request(req, warm)
    done = [warm]
    wall = {}

    if args.trace:
        untraced = wl.measure(stream, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.measure(stream, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        done += [untraced, traced]
        layer = tracer.metrics(untraced, traced)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        requests = len(traced.latencies)
    else:
        m = wl.measure(stream, args.seconds)
        done.append(m)
        p50, p90 = _percentiles_ms(m.adjusted)
        setup_s, wall["setup_s"] = _setup_seconds(args.workload, args.seed)
        values = {
            "rows_per_s": m.rows_per_s,
            "request_ms_p50": p50,
            "request_ms_p90": p90,
            "peak_rss_mb": _peak_rss_mb(),
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        requests = len(m.latencies)
        wall["rows_per_s"] = m.wall_rows_per_s
        wall["request_ms_p50"], wall["request_ms_p90"] = _percentiles_ms(m.latencies)

    spot_attempted, spot_failed = workload.checker.spot_check()
    attempted = sum(m.attempted for m in done) + spot_attempted
    failed = sum(m.failed for m in done) + spot_failed + workload.checker.finish()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "requests": requests,
        "wall": wall,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("deep_sin", "short_cavity", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    machine = _machine()
    result = run(args)
    requests = result.pop("requests")
    wall = result.pop("wall")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "requests": requests, "wall": wall, **result}
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# workload={args.workload} seed={args.seed} requests={requests} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_share={result['failed'] / result['attempted']:.3g}")
    for metric, entry in result["metrics"].items():
        print(f"# {metric} = {entry['value']} {entry['unit']}")
    for metric, value in wall.items():
        print(f"# wall {metric} = {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
