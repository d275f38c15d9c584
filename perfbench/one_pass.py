"""One benchmark pass in a fresh process; ``run.py`` starts it.

    python3 perfbench/one_pass.py --mode pass --workload lc20-run --seed 2 \
        --work DIR --index 0 --trace 0

Modes:
  setup   import agentsynth and load the workload config, then exit
  pass    run the workload once (traced with --trace 1), check its outputs
  at-cap  attempt bayesnet.exact_search at its advertised cap

Each mode writes ``DIR/<mode>-<index>.json``. ``PYTHONPATH`` must name the
checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import layers
import spans
import workloads


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "pass", "at-cap"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result_path = args.work / f"{args.mode}-{args.index}.json"

    if args.mode == "at-cap":
        ops = workloads.Operations()
        workloads.attempt_at_cap(ops, args.seed)
        result = {"ops": ops.results}
    else:
        out_dir = args.work / f"pass-{args.index}"
        loaded = workloads.load_workload(args.workload, args.seed, out_dir,
                                         args.work / "inputs")
        setup_s = time.perf_counter() - started
        result = {"setup_s": setup_s}
        if args.mode == "pass":
            result.update(run_pass(args.workload, loaded, out_dir, args.trace, args.work))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def run_pass(workload: str, loaded, out_dir: Path, trace: int, work: Path) -> dict:
    """Run, time and check one pass; the result is JSON-ready."""
    ops = workloads.Operations()
    error = None
    tracer = None
    started = time.perf_counter()
    try:
        if trace:
            tracer = spans.Tracer()

            def around(name, call):
                with tracer.span(f"cli.{name}"):
                    return call()

            with spans.installed(tracer, layers.bindings()):
                workloads.run_workload(workload, loaded, ops, around)
        else:
            workloads.run_workload(workload, loaded, ops)
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "error": error}
    if error is None:
        checks, mdl = workloads.check_outputs(workload, out_dir)
        for name, ok in checks.items():
            ops.record(name, ok)
        result["facts"] = workloads.pass_facts(out_dir)
        if mdl:
            result["facts"]["mdl"] = mdl
        result["digest"] = workloads.report_digest(out_dir) if checks["check.report"] else None
    if tracer is not None:
        result["span_metrics"] = layers.span_metrics(tracer.spans)
        result["span_self_s"] = sum(spans.self_times(tracer.spans))
        with open(work / "spans.json", "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.items, s.failed]
                       for s in tracer.spans], fh)
    result["ops"] = ops.results
    return result


if __name__ == "__main__":
    sys.exit(main())
