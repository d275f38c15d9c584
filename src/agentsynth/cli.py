"""Command-line entry points, one subcommand per pipeline stage.

    agentsynth synth    --config c.json [--count n]  benchmark data only
    agentsynth prepare  --config c.json              acquire, write, split
    agentsynth train    --config c.json --method m   fit one method
    agentsynth sample   --config c.json --method m [--count n]
    agentsynth evaluate --config c.json              score pools on disk
    agentsynth run      --config c.json              the full pipeline
    agentsynth report   --config c.json              re-render report.csv

Each staged subcommand reads the files its stage consumes from the output
directory (README, "Command line", lists them) and calls the stage function
of :mod:`agentsynth.pipeline` that ``run`` chains in memory, so both flows
write the same files. All but ``report`` rewrite run_info.json. ``--out``
overrides the configured output directory.

Exit codes: 0 success, 2 configuration error, 3 data error (and any other
toolkit error, such as a stale cache), 4 method divergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import metrics
from .dataset import read_json, read_pool_csv, schema_from_json
from .errors import AgentSynthError, ConfigError, DataError, DivergenceError
from .pipeline import (
    ExperimentConfig,
    MethodSpec,
    evaluate_pools,
    load_config,
    load_model,
    prepare_data,
    recorded_stages,
    run_pipeline,
    sample_method,
    train_method,
    write_source,
)
from .synthdata import synth_generate

# perfbench/layers.py wraps these names on this module; they stay bound
# until the benchmark's spans move to the stage functions
from .dataset import codes_to_pool, split_pool, write_pool_csv  # noqa: F401
from .pipeline import acquire_data, fit_and_sample  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4


def _load(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError(f"{args.command}: --config is required")
    return load_config(args.config, out_dir=args.out, seed=args.seed)


def _read_schema(out: Path):
    path = out / "schema.json"
    if not path.exists():
        raise DataError(f"{path} not found; run 'prepare' first")
    return schema_from_json(read_json(path))


def _method(args, config: ExperimentConfig) -> MethodSpec:
    if not args.method:
        raise ConfigError(f"{args.command} needs --method")
    for method in config.methods:
        if method.name == args.method:
            return method
    raise ConfigError(f"no method named {args.method!r} in the configuration")


def _read_splits(out: Path, schema, *names: str):
    return [read_pool_csv(out / "data" / f"{name}.csv", schema, provenance=name)
            for name in names]


def cmd_synth(args) -> int:
    config = _load(args)
    if config.synthetic is None:
        raise ConfigError("synth needs a data.synthetic generator spec")
    spec = replace(config.synthetic, size=args.count or config.synthetic.size)
    out = Path(config.out_dir)
    with recorded_stages(out) as stage, stage("synth"):
        pool = synth_generate(spec)
        write_source(pool, out)
    print(f"wrote {len(pool)} agents to {out / 'data' / 'source.csv'}")
    return EXIT_OK


def cmd_prepare(args) -> int:
    config = _load(args)
    out = Path(config.out_dir)
    with recorded_stages(out) as stage, stage("prepare"):
        splits = prepare_data(config, out)
    print(f"split {sum(map(len, splits))} rows into {'/'.join(str(len(p)) for p in splits)}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load(args)
    method = _method(args, config)
    out = Path(config.out_dir)
    with recorded_stages(out) as stage, stage(f"train:{method.name}"):
        # a Gibbs model is its chain settings alone; the other kinds fit on the splits
        train, validation = (None, None) if method.kind == "gibbs" else \
            _read_splits(out, _read_schema(out), "train", "validation")
        train_method(config, method, train, validation, out)
    print(f"trained {method.name} ({method.kind})")
    return EXIT_OK


def cmd_sample(args) -> int:
    config = _load(args)
    method = _method(args, config)
    count = args.count or config.generation_count
    out = Path(config.out_dir)
    with recorded_stages(out) as stage, stage(f"sample:{method.name}"):
        schema = _read_schema(out)
        model = load_model(method, out)
        train = _read_splits(out, schema, "train")[0] if method.kind == "gibbs" else None
        pool = sample_method(config, method, model, schema, count, out, train)
    print(f"wrote {len(pool)} agents to {out / 'pools' / f'{method.name}.csv'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load(args)
    out = Path(config.out_dir)
    with recorded_stages(out) as stage, stage("evaluate"):
        schema = _read_schema(out)
        splits = _read_splits(out, schema, "train", "validation", "test")
        pools = {}
        for method in config.methods:
            path = out / "pools" / f"{method.name}.csv"
            if not path.exists():
                raise DataError(f"{path} not found; run 'sample' for {method.name!r} first")
            pools[method.name] = read_pool_csv(path, schema, provenance="generated")
        evaluate_pools(config, pools, *splits, out)
    print(f"report written to {out / 'report.json'}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load(args)
    report = run_pipeline(config)
    out = Path(config.out_dir)
    print(f"pipeline complete; report at {out / 'report.json'}")
    for name in report.method_names:
        row = report.rows[name]
        marg = row.views["marginal"].srmse
        print(f"  {name}: marginal SRMSE {marg:.4f}, mu_NS {row.diversity.mu_ns:.4f}")
    return EXIT_OK


def cmd_report(args) -> int:
    out = Path(_load(args).out_dir if args.config else args.out or "out")
    path = out / "report.json"
    if not path.exists():
        raise DataError(f"{path} not found")
    report = metrics.report_from_dict(read_json(path))
    metrics.write_report_csv(report, out / "report.csv")
    print(f"re-rendered {out / 'report.csv'}")
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "prepare": cmd_prepare,
    "train": cmd_train,
    "sample": cmd_sample,
    "evaluate": cmd_evaluate,
    "run": cmd_run,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentsynth",
        description="Synthetic agent populations: generate, train, sample, evaluate.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="experiment configuration JSON")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--method", help="method name for train/sample")
    parser.add_argument("--count", type=int, help="generation count override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.count is not None and args.count < 1:
            raise ConfigError(f"--count must be at least 1, got {args.count}")
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"method diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (AgentSynthError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
