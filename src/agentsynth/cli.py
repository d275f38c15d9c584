"""Command-line entry points around the pipeline stages.

    agentsynth synth    --config c.json --out dir    benchmark data only
    agentsynth prepare  --config c.json --out dir    split + encode artifacts
    agentsynth train    --config c.json --method m   fit one method
    agentsynth sample   --config c.json --method m --count n
    agentsynth evaluate --config c.json --out dir    score pools on disk
    agentsynth run      --config c.json --out dir    the full pipeline
    agentsynth report   --out dir                    re-render report.csv

Exit codes: 0 success, 2 configuration error, 3 data error (and any other
toolkit error, such as a stale cache), 4 method divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import baselines, bayesnet, gibbs, metrics, vae
from .dataset import (
    codes_to_pool,
    read_pool_csv,
    schema_from_json,
    schema_to_json,
    split_pool,
    write_pool_csv,
)
from .errors import AgentSynthError, ConfigError, DataError, DivergenceError
from .pipeline import (
    ExperimentConfig,
    MethodSpec,
    acquire_data,
    fit_and_sample,
    load_config,
    run_pipeline,
    substream,
)
from .synthdata import synth_generate

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
    with open(path) as fh:
        return schema_from_json(json.load(fh))


def _find_method(config: ExperimentConfig, name: str) -> tuple[int, MethodSpec]:
    for index, method in enumerate(config.methods):
        if method.name == name:
            return index, method
    raise ConfigError(f"no method named {name!r} in the configuration")


def cmd_synth(args) -> int:
    config = _load(args)
    if config.synthetic is None:
        raise ConfigError("synth needs a data.synthetic generator spec")
    spec = config.synthetic
    if args.count:
        spec = replace(spec, size=args.count)
    pool = synth_generate(spec)
    out = Path(config.out_dir)
    (out / "data").mkdir(parents=True, exist_ok=True)
    with open(out / "schema.json", "w") as fh:
        json.dump(schema_to_json(pool.schema), fh, indent=2)
    write_pool_csv(pool, out / "data" / "source.csv")
    print(f"wrote {len(pool)} agents to {out / 'data' / 'source.csv'}")
    return EXIT_OK


def cmd_prepare(args) -> int:
    config = _load(args)
    source = acquire_data(config)
    out = Path(config.out_dir)
    (out / "data").mkdir(parents=True, exist_ok=True)
    with open(out / "schema.json", "w") as fh:
        json.dump(schema_to_json(source.schema), fh, indent=2)
    write_pool_csv(source, out / "data" / "source.csv")
    split_seed = int(substream(config.seed, "split").integers(2 ** 31))
    train, validation, test = split_pool(
        source, config.train_frac, config.val_frac_of_train, split_seed)
    for pool, name in ((train, "train"), (validation, "validation"), (test, "test")):
        write_pool_csv(pool, out / "data" / f"{name}.csv")
    print(f"split {len(source)} rows into {len(train)}/{len(validation)}/{len(test)}")
    return EXIT_OK


def _load_splits(config: ExperimentConfig):
    out = Path(config.out_dir)
    schema = _read_schema(out)
    train = read_pool_csv(out / "data" / "train.csv", schema, provenance="train")
    validation = read_pool_csv(out / "data" / "validation.csv", schema,
                               provenance="validation")
    test = read_pool_csv(out / "data" / "test.csv", schema, provenance="test")
    return schema, train, validation, test


def cmd_train(args) -> int:
    config = _load(args)
    if not args.method:
        raise ConfigError("train needs --method")
    index, method = _find_method(config, args.method)
    _, train, validation, _ = _load_splits(config)
    out = Path(config.out_dir)
    (out / "models").mkdir(parents=True, exist_ok=True)
    if method.kind == "gibbs":
        # conditionals are cheap to re-estimate; persist the chain settings
        with open(out / "models" / f"{method.name}.json", "w") as fh:
            json.dump({"format": "agentsynth-gibbs", "version": 1,
                       "params": method.params}, fh)
        print(f"gibbs settings recorded for {method.name}")
        return EXIT_OK
    rng_fit = substream(config.seed, "method", index, method.name, "fit")
    rng_sample = substream(config.seed, "method", index, method.name, "sample")
    # fit with a token sample to reuse the single fit path, discard the pool
    _, artifact = fit_and_sample(method, train, validation, 1, rng_fit, rng_sample)
    if artifact["kind"] == "vae":
        with open(out / "models" / f"{method.name}.json", "w") as fh:
            json.dump(artifact["checkpoint"], fh)
        vae.write_training_log(artifact["history"],
                               out / "models" / f"{method.name}-training-log.csv")
    else:
        with open(out / "models" / f"{method.name}.json", "w") as fh:
            json.dump(artifact["model"], fh)
    print(f"trained {method.name} ({method.kind})")
    return EXIT_OK


def cmd_sample(args) -> int:
    config = _load(args)
    if not args.method:
        raise ConfigError("sample needs --method")
    index, method = _find_method(config, args.method)
    count = args.count or config.generation_count
    out = Path(config.out_dir)
    schema = _read_schema(out)
    (out / "pools").mkdir(parents=True, exist_ok=True)
    rng_sample = substream(config.seed, "method", index, method.name, "sample")
    model_path = out / "models" / f"{method.name}.json"
    if method.kind == "gibbs":
        train = read_pool_csv(out / "data" / "train.csv", schema, provenance="train")
        tables = gibbs.estimate_conditionals(train)
        rng_fit = substream(config.seed, "method", index, method.name, "fit")
        chain = gibbs.ChainConfig(
            target_count=count,
            warmup=method.params.get("warmup", 20000),
            thinning=method.params.get("thinning", 20),
            seed=method.params.get("seed", int(rng_fit.integers(2 ** 31))),
            restart_on_unreachable=method.params.get("restart_on_unreachable", False),
        )
        pool, diagnostics = gibbs.run_chain(tables, train, chain)
        gibbs.write_diagnostics(diagnostics, out / "models" / f"{method.name}-diagnostics.json")
    elif method.kind == "vae":
        if not model_path.exists():
            raise DataError(f"{model_path} not found; run 'train' first")
        model = vae.load_checkpoint(model_path)
        pool = vae.sample(model, count, rng_sample,
                          harden=method.params.get("harden", "argmax"))
    else:
        if not model_path.exists():
            raise DataError(f"{model_path} not found; run 'train' first")
        dag, cpts = bayesnet.load_bn(model_path)
        codes = bayesnet.ancestral_sample(dag, cpts, count, rng_sample)
        pool = codes_to_pool(codes, schema, provenance="generated", rng=rng_sample)
    write_pool_csv(pool, out / "pools" / f"{method.name}.csv")
    print(f"wrote {len(pool)} agents to {out / 'pools' / f'{method.name}.csv'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load(args)
    schema, train, _, test = _load_splits(config)
    out = Path(config.out_dir)
    pools = {}
    for method in config.methods:
        path = out / "pools" / f"{method.name}.csv"
        if not path.exists():
            raise DataError(f"{path} not found; run 'sample' for {method.name!r} first")
        pools[method.name] = read_pool_csv(path, schema, provenance="generated")
    marginal = baselines.fit_marginals(train)
    pools["marginal-sampler"] = baselines.marginal_sample(
        marginal, config.generation_count, substream(config.seed, "baseline", "marginal"))
    pools["resample-training"] = baselines.resample_training(
        train, config.generation_count, substream(config.seed, "baseline", "resample"))
    projection = None
    if config.projection is not None:
        projection = [schema.index(name) for name in config.projection]
    report = metrics.evaluate(pools, test, train, projection=projection,
                              metadata={"master_seed": config.seed})
    with open(out / "report.json", "w") as fh:
        fh.write(metrics.report_to_json(report))
    metrics.write_report_csv(report, out / "report.csv")
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
    out = Path(args.out or "out")
    path = out / "report.json"
    if not path.exists():
        raise DataError(f"{path} not found")
    with open(path) as fh:
        report = metrics.report_from_dict(json.load(fh))
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
