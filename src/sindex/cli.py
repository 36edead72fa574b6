"""Command-line front end: simulate, fit, infer, and experiment subcommands.

Exit codes: 0 on success, 2 on configuration or data errors, 3 on numerical
failures.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .errors import ConfigError, DataError, NumericalError, PipelineError, SindexError
from .experiments import ExperimentSpec, run_experiment
from .models import (
    Dataset,
    DesignSpec,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)
from .pipeline import PipelineConfig, SplitConfig, run_pipeline


def ingest_csv(path, response: str) -> Dataset:
    """Read a numeric CSV into a Dataset; the named column is the response,
    the remaining columns become the design matrix in file order."""
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        if response not in header:
            raise DataError(
                f"response column {response!r} not found; file has {header}"
            )
        y_col = header.index(response)
        rows = list(reader)
    if not rows:
        raise DataError(f"{path} has a header but no data rows")
    try:
        table = np.array(rows, dtype=float)
    except ValueError:  # a ragged row or a non-numeric cell
        table = None
    if table is None or table.shape[1] != len(header):
        _raise_bad_row(path, header, rows)
    return Dataset(np.delete(table, y_col, axis=1), table[:, y_col].copy())


def _raise_bad_row(path, header, rows) -> None:
    """Raise the DataError naming the first row of the wrong length or the
    first cell that float() rejects, with its line and column."""
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
            )
        for name, cell in zip(header, row):
            try:
                float(cell)
            except ValueError:
                raise DataError(
                    f"{path}:{line_no}: non-numeric cell {cell!r} "
                    f"in column {name!r}"
                ) from None


def dataset_to_csv(data: Dataset, path, response: str = "y") -> None:
    """Write a Dataset with round-trip float formatting."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"x{j + 1}" for j in range(data.p)] + [response])
        for row, y in zip(data.x.tolist(), data.y.tolist()):
            writer.writerow([repr(v) for v in row] + [repr(y)])


def _load_config(args) -> PipelineConfig:
    if args.config:
        with open(args.config) as handle:
            doc = json.load(handle)
        config = PipelineConfig.from_dict(doc)
    else:
        config = PipelineConfig.from_dict({})
    overrides = {}
    if args.pilot:
        overrides["pilot"] = {
            "kind": args.pilot,
            "lambda": args.pilot_lambda,
        }
    if args.penalty:
        overrides["penalty"] = {"kind": args.penalty, "lambda": args.penalty_lambda}
        overrides["inference"] = {
            "mode": "ridge" if args.penalty == "ridge" else "unregularized",
            "alpha": args.alpha,
        }
    if args.no_split or args.seed is not None:
        overrides["split"] = {
            "no_split": args.no_split,
            "seed": args.seed if args.seed is not None else 0,
        }
    if overrides:
        doc = config.to_dict()
        for key, value in overrides.items():
            doc.setdefault(key, {}).update(value)
        doc["inference"]["alpha"] = args.alpha
        config = PipelineConfig.from_dict(doc)
    return config


def _cmd_simulate(args) -> int:
    model = model_lookup(args.model)
    design = DesignSpec.identity(args.p)
    seeds = np.random.SeedSequence(args.seed).spawn(3)
    beta = sample_coefficients(args.p, args.beta_scheme, design, seeds[0])
    x = sample_design(args.n, design, seeds[1])
    y = generate_responses(x, beta, model, seeds[2])
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "data.csv")
    dataset_to_csv(Dataset(x, y), data_path)
    with open(os.path.join(args.out, "truth.json"), "w") as handle:
        json.dump(
            {
                "model": args.model,
                "n": args.n,
                "p": args.p,
                "seed": args.seed,
                "beta_scheme": args.beta_scheme,
                "beta": beta.tolist(),
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {data_path}")
    return 0


def _run_fit(args):
    data = ingest_csv(args.data, args.response)
    config = _load_config(args)
    report = run_pipeline(data, config)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w") as handle:
        handle.write(report.to_json(indent=2))
        handle.write("\n")
    report.link.to_csv(os.path.join(args.out, "link.csv"))
    return report


def _cmd_fit(args) -> int:
    report = _run_fit(args)
    beta = report.coef.beta
    print(
        f"fit: p={report.p}, iterations={report.coef.iterations}, "
        f"grad_norm={report.coef.grad_norm:.2e}"
    )
    print(f"coefficient norm {np.linalg.norm(beta):.6f}")
    return 0


def _cmd_infer(args) -> int:
    report = _run_fit(args)
    report.inference.to_csv(os.path.join(args.out, "inference.csv"))
    inf = report.inference
    print(
        f"infer: mode={inf.mode}, mu_hat={inf.mu_hat:.6f}, "
        f"sigma2_hat={inf.sigma2_hat:.6f}, alpha={inf.alpha}"
    )
    print(f"rejections at alpha={inf.alpha}: {int(inf.reject.sum())} of {report.p}")
    return 0


def _cmd_experiment(args) -> int:
    custom_config = None
    if args.config:
        with open(args.config) as handle:
            custom_config = json.load(handle)
    spec = ExperimentSpec(
        name=args.name,
        out_dir=args.out,
        reps=args.reps,
        seed=args.seed if args.seed is not None else 20240,
        models=args.models,
        paper_scale=args.paper_scale,
        jobs=args.jobs,
        custom_config=custom_config,
    )
    manifest = run_experiment(spec)
    print(json.dumps(manifest.get("summary", {}), indent=2, sort_keys=True))
    print(f"artifacts in {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sindex",
        description="Estimation and coordinate-wise inference for "
        "high-dimensional single-index models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--model", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--beta-scheme", default="uniform-sphere")
    sim.add_argument("--out", default="sindex-out")
    sim.set_defaults(func=_cmd_simulate)

    for name, fn in (("fit", _cmd_fit), ("infer", _cmd_infer)):
        cmd = sub.add_parser(name, help=f"{name} a model on a CSV dataset")
        cmd.add_argument("--data", required=True)
        cmd.add_argument("--response", default="y")
        cmd.add_argument("--config", help="pipeline config JSON")
        cmd.add_argument("--pilot", choices=("ridge", "ls", "logit-mle", "pois-mle"))
        cmd.add_argument("--lambda", dest="pilot_lambda", type=float, default=1.0)
        cmd.add_argument("--penalty", choices=("none", "ridge"))
        cmd.add_argument("--penalty-lambda", type=float, default=0.1)
        cmd.add_argument("--alpha", type=float, default=0.05)
        cmd.add_argument("--no-split", action="store_true")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--out", default="sindex-out")
        cmd.set_defaults(func=fn)

    exp = sub.add_parser("experiment", help="run a named experiment")
    exp.add_argument("--name", required=True)
    exp.add_argument("--reps", type=int)
    exp.add_argument("--seed", type=int)
    exp.add_argument("--models", nargs="*")
    exp.add_argument("--paper-scale", action="store_true")
    exp.add_argument("--jobs", type=int, default=1)
    exp.add_argument("--config", help="custom experiment config JSON")
    exp.add_argument("--out", default="sindex-out")
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err.cause, ConfigError) else 3
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except SindexError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
