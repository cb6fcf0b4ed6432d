"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_pool --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` measures
a third of the time untraced and the rest with spans around every
layer, and reports the per-layer metrics.  ``--workload all`` runs each
workload in its own process and prints one table.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
NAMES = ("sweep_pool", "sweep_tensor", "sweep_cached", "stream_live")
#: CPUs this process may use, read before any workload pins itself.
CPUS_USABLE = len(os.sched_getaffinity(0))
#: Set-ups per measurement; ``setup_s`` reports their median.  The
#: first counts this process's own imports, the others time the
#: imports again in a fresh process.
SETUP_REPEATS = 3


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def clear_repro_env() -> list[str]:
    """Drop every ``REPRO_*`` setting so none can change what is
    measured; returns the names dropped."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def provenance(args, cleared: list[str], cache_backend: str) -> dict:
    import numpy
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": CPUS_USABLE,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cache_backend": cache_backend,
        "repro_env_cleared": cleared,
    }


def import_seconds() -> float:
    """Interpreter start and every import a run makes, timed in a
    fresh process."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = "
         f"[{str(HERE)!r}, {str(SRC)!r}]; import workloads"],
        check=True, timeout=120)
    return time.perf_counter() - started


def run_one(args, cleared: list[str]) -> dict:
    sys.path.insert(0, str(SRC))
    from stats import Tally, highest_reportable, median, tail_percentile
    from tracing import Tracer
    from workloads import WORKLOADS, peak_rss_mb, wrap_layers

    from repro.engine.runner import FAILURE_STAGES
    from repro.exec.graph import PROFILE_ENV

    imports = time.perf_counter() - _STARTED
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORK)
    tally = Tally(failure_stages=frozenset(FAILURE_STAGES))
    tracer = None
    as_measured = None
    try:
        if args.trace == 0:
            setups = []
            for rep in range(SETUP_REPEATS):
                if rep:
                    imports = import_seconds()
                started = time.perf_counter()
                workload.setup()
                setups.append(imports + time.perf_counter() - started)
            phase = workload.measure(args.seconds)
            values = phase.end_to_end()
            # Set-up is imports, file writes and process starts more
            # than computation: scaling it by the probe tripled its
            # run-to-run spread, so it is reported as measured.
            values["setup_s"] = median(setups)
            values["peak_rss_mb"] = peak_rss_mb()
            as_measured = phase.end_to_end(at_reference=False)
            phases = [phase]
            wanted = bench["end_to_end"]
        else:
            workload.setup()
            plain = workload.measure(args.seconds / 3.0)
            tracer = Tracer()
            workload.trace_on(tracer)
            wrap_layers(tracer, getattr(workload, "session_spans", {}))
            try:
                phase = workload.measure(args.seconds * 2.0 / 3.0)
            finally:
                tracer.unwrap_all()
                os.environ.pop(PROFILE_ENV, None)
            values = workload.layers(phase)
            values["trace.overhead_frac"] = 1.0 - (
                phase.end_to_end()["scenarios_per_s"]
                / plain.end_to_end()["scenarios_per_s"])
            phases = [plain, phase]
            wanted = bench["per_layer"]
        cache = getattr(getattr(workload, "runner", None), "cache", None)
        backend = getattr(cache, "backend_name", "none")
        workload.check(phases, tally)
    finally:
        workload.remove()

    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    report = {"metrics": metrics, "failures": tally.to_dict(),
              "provenance": provenance(args, cleared, backend),
              "raw": phase.raw()}
    if as_measured is not None:
        report["as_measured"] = as_measured
    latencies = (phase.verdict_latencies()
                 if hasattr(phase, "verdict_latencies") else None)
    if latencies:
        p99 = tail_percentile(latencies, 99.0)
        tail = highest_reportable(latencies)
        report["verdict_latency"] = {
            "samples": len(latencies),
            "p99_ms": None if p99 is None else p99 * 1e3,
            "highest_reportable": (None if tail is None else
                                   {"pct": tail[0], "ms": tail[1] * 1e3}),
        }
    if tracer is not None:
        name = f"{args.workload}-seed{args.seed}"
        tracer.write(WORK / "traces" / f"{name}.jsonl")
        report["span_summary"] = tracer.summary()
    out = WORK / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def print_report(name: str, report: dict) -> None:
    print(f"== {name}")
    measured = report.get("as_measured", {})
    for metric, entry in report["metrics"].items():
        line = f"  {metric:28s} {entry['value']:14.6g} {entry['unit']}"
        if metric in measured:
            line += f"   (as measured: {measured[metric]:.6g})"
        print(line)
    failures = report["failures"]
    print(f"  {'fail_ratio':28s} {failures['fail_ratio']:14.6g} 1   "
          f"({failures['failed']} of {failures['attempted']}; "
          f"{failures['physics_verdicts']} physics verdicts counted as "
          f"results)")
    latency = report.get("verdict_latency")
    if latency:
        p99, tail = latency["p99_ms"], latency["highest_reportable"]
        if p99 is not None:
            text = f"{p99:14.6g} ms"
        else:
            text = f"{'n/a':>14s}    (fewer than 10 samples beyond it"
            if tail is not None:
                text += f"; p{tail['pct']:g} = {tail['ms']:.6g} ms"
            text += ")"
        print(f"  {'verdict_ms_p99':28s} {text}  n={latency['samples']}")
    print(f"  provenance {json.dumps(report['provenance'])}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    reports = {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            return done.returncode
        reports[name] = json.loads((WORK / "results" / (
            f"{name}-seed{args.seed}-trace{args.trace}.json")).read_text())
        print_report(name, reports[name])
    failures = [r["failures"] for r in reports.values()]
    print(json.dumps({
        "correct": all(f["failed"] == 0 for f in failures),
        "attempted": sum(f["attempted"] for f in failures),
        "failed": sum(f["failed"] for f in failures),
        "metrics": {f"{name}.{metric}": entry
                    for name, report in reports.items()
                    for metric, entry in report["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    cleared = clear_repro_env()
    if args.workload == "all":
        return run_all(args)
    report = run_one(args, cleared)
    print_report(args.workload, report)
    failures = report["failures"]
    print(json.dumps({"correct": failures["failed"] == 0,
                      "attempted": failures["attempted"],
                      "failed": failures["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
