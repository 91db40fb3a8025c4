"""Benchmark of the plaquette runs, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each sample is a fresh Python process (``worker.py``) with BLAS threads
pinned to the cores this process may use; samples run one after another,
in a closed loop, for ``--seconds`` at most, and nothing else runs
beside them.  An operation is one noisy Trotter step with its cooling and
observables; after the samples every step's output is checked against the
independent oracle (uncooled runs) or the method properties (cooled runs)
in ``oracle.py``, and a step that raised or failed a check counts as failed.

With ``--trace 0`` the end-to-end metrics are taken over the samples: the mean
wall time, all steps over all step seconds, and the median set-up time and
peak memory.
With ``--trace 1`` untraced and traced samples alternate; the per-layer
metrics are medians over the traced ones, and ``trace.overhead_s`` is the
traced minus the untraced median wall time.  The last line printed is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(SRC)]

from tracer import self_times  # noqa: E402
from workloads import END_TO_END, WORKLOADS, per_layer_metrics, span_names  # noqa: E402

SAMPLE_TIMEOUT_S = 170
BLAS_THREADS = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sample_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def run_sample(wl, prefix: Path, traced: bool) -> dict:
    """One worker process; returns its timings plus wall_s, or exit != 0."""
    for old in prefix.parent.glob(prefix.name + ".*"):
        old.unlink()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), wl.name, str(prefix), str(int(traced))],
            env=sample_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{wl.name}: sample timed out", file=sys.stderr)
        return {"exit": -1}
    timing_file = Path(f"{prefix}.json")
    if proc.returncode != 0 or not timing_file.exists():
        sys.stderr.write(proc.stderr)
        return {"exit": proc.returncode or -1}
    timing = json.loads(timing_file.read_text())
    timing["wall_s"] = timing["t_done"] - t0
    timing["traced"] = traced
    return timing


def check_samples(wl, samples: list[tuple[Path, dict]]) -> int:
    """Failed steps over all samples, checked against the oracle."""
    import numpy as np
    from gaugecool.dynamics import TrotterConfig

    from oracle import Reference

    dt = TrotterConfig(total_time=float(wl.total_time), n_steps=wl.steps).dt
    ref = Reference(wl, dt)
    failed = 0
    for prefix, timing in samples:
        if timing["exit"] != 0:
            failed += wl.steps
        elif wl.via == "library":
            rows = json.loads(Path(f"{prefix}.audit.json").read_text())
            failed += len(ref.check_audit(rows))
        else:
            rho_file = Path(f"{prefix}.rho.npy")
            rho = np.load(rho_file) if rho_file.exists() else None
            failed += len(ref.check_cli(Path(f"{prefix}.csv").read_text(), rho))
    return failed


def end_to_end(wl, timings: list[dict]) -> dict[str, float]:
    """Wall time and step rate averaged over the run, the rest as medians.

    A sample's step time jumps between a fast and a slow level with the
    host's load; the run median jumps with the share of samples at each
    level, while the mean moves smoothly with it.
    """
    med = statistics.median
    return {
        "wall_s": statistics.fmean(t["wall_s"] for t in timings),
        "setup_s": med(t["setup_s"] for t in timings),
        "steps_per_s": wl.steps * len(timings) / sum(t["steps_s"] for t in timings),
        "peak_rss_mb": med(t["peak_rss_kb"] / 1024.0 for t in timings),
    }


def per_layer(plain: list[dict], traced: list[tuple[Path, dict]]) -> dict[str, float]:
    med = statistics.median
    per_sample = []
    cooling_calls = converged = sweeps = 0
    for prefix, timing in traced:
        with open(f"{prefix}.spans.jsonl", encoding="ascii") as fh:
            spans = [json.loads(line) for line in fh]
        times = self_times(spans)
        row = {"startup.import.s": timing["import_s"], "cli.self.s": times.get("cli.main", (0.0, 0))[0]}
        for name in span_names():
            seconds, calls = times.get(name, (0.0, 0))
            row[f"{name}.s"] = seconds
            row[f"{name}.calls"] = calls
        per_sample.append(row)
        for s in spans:
            if s["name"] == "cooling.iterative_cooling":
                cooling_calls += 1
                converged += s["converged"]
                sweeps += s["sweeps"]
    out = {key: med(r[key] for r in per_sample) for key in per_sample[0]}
    out["cooling.iterative_cooling.converged_share"] = converged / cooling_calls if cooling_calls else 0.0
    out["cooling.iterative_cooling.sweeps_per_call"] = sweeps / cooling_calls if cooling_calls else 0.0
    out["trace.overhead_s"] = med(t["wall_s"] for _, t in traced) - med(t["wall_s"] for t in plain)
    return out


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    # An untimed set-up first: the first process after a pause sets up
    # about twice as slowly as the ones that follow it.
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), wl.name, str(OUT / "warmup"), "warmup"],
        env=sample_env(), cwd=ROOT, capture_output=True, timeout=SAMPLE_TIMEOUT_S,
    )
    samples: list[tuple[Path, dict]] = []
    start = time.monotonic()
    rounds = 0
    while True:
        order = (False, True) if rounds % 2 == 0 else (True, False)
        for traced in order if trace else (False,):
            prefix = OUT / f"{wl.name}-{len(samples)}"
            samples.append((prefix, run_sample(wl, prefix, traced)))
        rounds += 1
        elapsed = time.monotonic() - start
        # Stop before a round that would end after `seconds`, judged by the
        # mean round so far; every run attempts whole rounds.
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    failed = check_samples(wl, samples)
    good = [(p, t) for p, t in samples if t["exit"] == 0]
    plain = [t for _, t in good if not t["traced"]]
    traced = [(p, t) for p, t in good if t["traced"]]
    complete = bool(plain) and (bool(traced) or not trace)
    metrics = {}
    if complete:
        metrics = per_layer(plain, traced) if trace else end_to_end(wl, plain)
    attempted = wl.steps * len(samples)
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "samples": len(samples),
        "steps_per_sample": wl.steps,
        "attempted": attempted,
        "failed": failed,
        "correct": complete and failed == 0,
        "metrics": metrics,
        "timings": [t for _, t in samples],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every workload is deterministic")
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaugecool" / "cli.py").is_file():
        print(f"error: no gaugecool sources under {SRC.relative_to(ROOT)}/", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    os.environ.update({key: str(BLAS_THREADS) for key in BLAS_ENV})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = dict(per_layer_metrics() if args.trace else END_TO_END)
    facts = machine_facts()
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    results = []
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        res["machine"] = facts
        results.append(res)
        result_file = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        result_file.write_text(json.dumps(res, indent=1))
        print(f"{name}: seed={args.seed} samples={res['samples']} attempted={res['attempted']} "
              f"failed={res['failed']} correct={str(res['correct']).lower()}")
        for metric, value in res["metrics"].items():
            print(f"  {metric:<52s} {value:14.6g} {units[metric]}")

    def entry(metric, value):
        return {"value": value, "unit": units[metric]}

    if len(results) == 1:
        metrics = {m: entry(m, v) for m, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{m}": entry(m, v)
                   for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
