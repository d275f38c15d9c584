"""Benchmark of the agentsynth synthesis pipeline.

    python3 perfbench/run.py --workload lc20-run --seed 2 --seconds 36 --trace 0

Run from the root of a checkout: the program is imported from ``src``.
One client runs one pass at a time (a closed loop), each pass in a fresh
Python process with the BLAS thread count fixed at ``BLAS_THREADS``.

``--trace 0`` measures set-up ``SETUP_SAMPLES`` times, then runs untraced
passes until ``--seconds`` is used, and reports the end-to-end metrics as
medians over the passes. ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics. Every pass checks its outputs, and
all passes of a run must write the same ``report.json``.

The last line of standard output is the result as one JSON object; the
lines before it give the machine facts and each pass. Work files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0  # every run ends well within three minutes
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "srmse_tri.rel": "ratio"}
# srmse_tri.rel averages, over these methods where the workload runs them,
# the trivariate SRMSE divided by the marginal sampler's: 0 is a perfect
# population, 1 is no better than drawing each variable independently. The
# ratio cancels how much structure a seed's data has. Gibbs is left out: its
# SRMSE is set by the probability island its chain gets trapped on, and
# moves by about 30% from seed to seed, more than any bound can allow.
# Output checks and metrics.srmse_tri.gibbs cover it.
QUALITY_METHODS = ("vae", "bn", "bn-greedy", "bn-exact")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # an installed package has its bytecode cached; time set-up that way
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def machine_facts(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "input_sizes": workloads.input_sizes(workload, seed),
        "load_avg_1min": os.getloadavg()[0],
    }


class Runner:
    """Starts child processes for one benchmark run and keeps its deadline."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = child_env(root)
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, mode: str, index: int = 0, trace: int = 0) -> tuple[dict | None, float]:
        """Run one child process; returns its result (None if it failed)
        and its wall time as seen from here."""
        command = [sys.executable, str(HERE / "one_pass.py"), "--mode", mode,
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--work", str(self.work), "--index", str(index), "--trace", str(trace)]
        started = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            print(f"{mode} {index}: timed out", file=sys.stderr)
            return None, time.perf_counter() - started
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            print(f"{mode} {index}: exit {done.returncode}\n{done.stderr[-4000:]}",
                  file=sys.stderr)
            return None, elapsed
        result = workloads.read_json(self.work / f"{mode}-{index}.json")
        shutil.rmtree(self.work / f"pass-{index}", ignore_errors=True)
        return result, elapsed


def run_passes(runner: Runner, seconds: float, trace: int, ops: workloads.Operations):
    """Untraced passes until ``seconds`` are used (at least one), or one
    untraced and one traced pass. Returns the pass results."""
    passes, index = [], 0
    started = time.perf_counter()
    while True:
        traced = trace and index == 1
        result, elapsed = runner.child("pass", index, int(traced))
        index += 1
        if result is None or result.get("error"):
            ops.record(f"pass-{index - 1}", False)
            if result and result.get("error"):
                print(result["error"], file=sys.stderr)
            break
        ops.results.update({f"pass-{index - 1}.{k}": v for k, v in result["ops"].items()})
        passes.append((result, elapsed))
        if trace:
            if index == 2:
                break
            continue
        used = time.perf_counter() - started
        typical = statistics.median(e for _, e in passes)
        if used + typical > seconds or typical * 1.5 > runner.remaining():
            break
    return passes


def end_to_end(passes, setup_samples) -> dict:
    """Medians over the run. Over passes it is the low median, so that with
    two passes one slowed by another tenant of the host does not count."""
    results = [r for r, _ in passes]
    report = results[0]["facts"]["report"]
    methods = [m for m in QUALITY_METHODS if m in report]
    values = {
        "wall_s": statistics.median_low(r["wall_s"] for r in results),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "srmse_tri.rel": statistics.fmean(
            report[m]["srmse_tri"] / report["marginal-sampler"]["srmse_tri"] for m in methods),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def per_layer(passes, at_cap_failed: int) -> dict:
    untraced, traced = passes[0][0], passes[1][0]
    values = dict(traced["span_metrics"])
    values.update(layers.artifact_metrics(untraced["facts"]))
    values["cli.exit_nonzero"] = sum(
        not ok for name, ok in traced["ops"].items() if name.startswith("cli."))
    values["bayesnet.exact_at_cap_failed"] = at_cap_failed
    values["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    values["trace.covered_ratio"] = traced["span_self_s"] / traced["wall_s"]
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in layers.PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="agentsynth pipeline benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "agentsynth" / "__init__.py").is_file():
        print("run from the root of an agentsynth checkout: src/agentsynth is missing",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, args.workload, args.seed, work)
    facts = machine_facts(args.workload, args.seed, args.trace)
    print("facts " + json.dumps(facts), flush=True)
    if args.workload == "mixed-staged":
        workloads.write_mixed_inputs(args.seed, work / "inputs")

    ops = workloads.Operations()
    setup_samples = []
    if not args.trace:
        runner.child("setup", 0)  # fills the bytecode cache; not counted
        for index in range(SETUP_SAMPLES):
            result, elapsed = runner.child("setup", index)
            ops.record(f"setup-{index}", result is not None)
            setup_samples.append(elapsed)

    passes = run_passes(runner, args.seconds, args.trace, ops)
    digests = {r.get("digest") for r, _ in passes}
    ops.record("check.report-digest-stable", len(digests) == 1 and None not in digests)
    for index, (result, elapsed) in enumerate(passes):
        print(f"pass {index}: wall_s {result['wall_s']:.3f} process_s {elapsed:.3f} "
              f"peak_rss_mb {result['peak_rss_mb']:.1f} digest {result.get('digest')}",
              flush=True)

    # the known exact_search defect at its cap: attempted once per run, outside
    # every timed pass, reported apart from the pass operations
    at_cap_failed = 0
    if args.workload == "bn-search":
        result, elapsed = runner.child("at-cap")
        at_cap_failed = int(result is None or not all(result["ops"].values()))
        print(f"at-cap exact_search: {'failed' if at_cap_failed else 'ok'} "
              f"({elapsed:.2f} s)", flush=True)

    complete = len(passes) >= (2 if args.trace else 1) \
        and all(result["facts"]["report"] for result, _ in passes)
    failed = ops.failed
    metrics = {}
    if complete:
        metrics = per_layer(passes, at_cap_failed) if args.trace \
            else end_to_end(passes, setup_samples)
    for name in failed:
        print(f"failed: {name}", file=sys.stderr)
    summary = {"facts": facts, "setup_samples": setup_samples, "ops": ops.results,
               "passes": [r for r, _ in passes], "metrics": metrics}
    with open(work.parent / f"{work.name}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    if (work / "spans.json").exists():
        (work / "spans.json").replace(work.parent / f"{work.name}-spans.json")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": complete and not failed, "attempted": ops.attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if complete and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
