"""End-to-end benchmark of the repro package: served queries and audit sweeps.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload serve-read --seed 1 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --seed 1                  # every workload
    python3 benchmarks/e2e/run.py --seed 1 --trace-dir traces  # traced, writes files
    python3 benchmarks/e2e/run.py --workload audit-dense --repeat 10

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones from a shorter traced run (``--trace-dir``
also writes ``<workload>.trace.json`` and ``layers.json`` there).
CPU-bound times are calibrated to a reference CPU speed (``speed.py``).
Every output is checked against an oracle.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when an oracle failed and 2 when the
checkout has no ``src/repro`` to measure.  ``README.md`` next to this file
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, WORK_ROOT, source_present, write_trace, merge_layers  # noqa: E402

WORKLOADS = ("serve-read", "serve-write", "audit-dense", "audit-symbolic")
#: Wall-clock cap of one workload run; a hung server or child fails the
#: run instead of stalling it (reaping it then takes at most 10 s more).
WATCHDOG_S = 150
#: A serve-read run whose generator sent its p99 request later than this
#: measured the generator, not the server.
MAX_LATE_MS_P99 = 2.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    if name.startswith("serve"):
        import serving

        workload = serving.SERVE_READ if name == "serve-read" else serving.SERVE_WRITE
        run = serving.run_traced if trace else serving.run_untraced
        return run(workload, seed, seconds, work_dir)
    import auditing

    workload = auditing.AUDIT_DENSE if name == "audit-dense" else auditing.AUDIT_SYMBOLIC
    run = auditing.run_traced if trace else auditing.run_untraced
    return run(workload, seed, seconds, work_dir)


def with_units(result: dict, spec: dict, trace: bool) -> dict:
    """Every metric ``BENCHMARK.json`` names for this mode, with its unit.

    End-to-end metrics must all be measured.  A per-layer metric whose
    layer the workload never enters reads 0 (no calls, no time).
    """
    measured = result["metrics"]
    entries = spec["per_layer" if trace else "end_to_end"]
    missing = [entry["name"] for entry in entries if not trace and entry["name"] not in measured]
    if missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    unknown = set(measured) - {entry["name"] for entry in entries}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        entry["name"]: {"value": float(measured.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in entries
    }


def _on_alarm(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {WATCHDOG_S} s per workload")


def run_once(args, spec: dict) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace or args.trace_dir)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S * len(names))
    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, trace, work_dir / name)
            result["metrics"] = with_units(result, spec, trace)
            results[name] = result
            if args.trace_dir:
                out = Path(args.trace_dir)
                write_trace(out / f"{name}.trace.json", result["spans"])
                merge_layers(out / "layers.json", name, result["layers"])
    finally:
        signal.alarm(0)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for name, result in results.items():
        print(f"== {name} (seed {args.seed}, {'traced' if trace else 'untraced'})")
        for metric, reading in result["metrics"].items():
            print(f"  {metric:<32} {reading['value']:>14.6g} {reading['unit']}")
        print(f"  attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        if result.get("info"):
            print("info " + json.dumps({"workload": name, **result["info"]}))
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {
            f"{name}/{metric}": reading
            for name, result in results.items()
            for metric, reading in result["metrics"].items()
        }
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def repeat(args, spec: dict) -> int:
    """``--repeat N``: N untraced invocations per workload on seeds
    ``seed .. seed+N-1``; per e2e metric the median, quartiles and spread
    (quartile distance over median), flagged when the spread exceeds the
    metric's bound."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    summary: dict = {}
    all_correct = True
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            command = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True,
                                  timeout=WATCHDOG_S + 30)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
            valid = result is not None and result["correct"] and done.returncode == 0
            if name == "serve-read" and info.get("late_ms_p99", 0.0) > MAX_LATE_MS_P99:
                valid = False
            all_correct = all_correct and result is not None and result["correct"]
            runs.append({"seed": seed, "valid": valid, "result": result, "info": info})
            status = "ok" if valid else "INVALID"
            print(f"{name} seed {seed}: {status} " + (
                " ".join(f"{m}={r['value']:.6g}" for m, r in result["metrics"].items())
                if result else done.stderr.strip()[-300:]), flush=True)
            if info:
                print("  info " + json.dumps(info), flush=True)
        valid_runs = [run["result"] for run in runs if run["valid"]]
        rows = {}
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in valid_runs]
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            rows[metric] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bound, "flag": spread > bound}
        summary[name] = {"valid_runs": len(valid_runs), "runs": len(runs), "metrics": rows}
        print(f"== {name}: {len(valid_runs)}/{len(runs)} valid runs")
        for metric, row in rows.items():
            flag = "  SPREAD OVER BOUND" if row["flag"] else ""
            print(f"  {metric:<14} median {row['median']:>12.6g}  q1 {row['q1']:>12.6g}  "
                  f"q3 {row['q3']:>12.6g}  spread {row['spread']:.4f} / bound {row['bound']}{flag}")
    print(json.dumps({"correct": all_correct, "repeat": args.repeat, "workloads": summary}))
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured length of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", help="traced run; write trace files here")
    parser.add_argument("--repeat", type=int, default=0, help="N untraced runs per workload")
    args = parser.parse_args(argv)
    if not source_present():
        print(f"e2e benchmark: no package at {SRC / 'repro'}; run it from a full checkout",
              file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]  # measure the default configuration
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    return repeat(args, spec) if args.repeat else run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
