"""Command-line front end: simulate, fit, and experiment subcommands.

Exit codes: 0 on success, 2 on configuration or data errors, 3 on numerical
failures.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .errors import ConfigError, DataError, PipelineError, SindexError
from .experiments import ExperimentSpec, _simulate, _write_outputs, run_experiment
from .models import Dataset
from .pilot import PILOT_KINDS
from .pipeline import PipelineConfig, check_seed, config_section, run_pipeline


def ingest_csv(path, response: str) -> Dataset:
    """Read a numeric CSV into a Dataset; the named column is the response,
    the remaining columns become the design matrix in file order.  Each
    row becomes floats as it is read."""
    try:
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
            if header.count(response) > 1:
                raise DataError(f"response column {response!r} is named more than once")
            y_col = header.index(response)
            # Each row's cells go straight into x and y, which double in place
            # (a realloc) when full, so that no cell is held twice while reading.
            x, y = np.empty((0, len(header) - 1)), np.empty(0)
            rows = 0
            for line_no, row in enumerate(reader, start=2):
                if rows == len(y):
                    x.resize((2 * rows + 64, x.shape[1]), refcheck=False)
                    y.resize(2 * rows + 64, refcheck=False)
                cells = _parse_row(path, header, line_no, row)
                x[rows, :y_col], x[rows, y_col:] = cells[:y_col], cells[y_col + 1 :]
                y[rows] = cells[y_col]
                rows += 1
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except OSError as err:  # a directory, or no permission
        raise DataError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise DataError(f"{path} is not UTF-8 text: {err}") from None
    if not rows:
        raise DataError(f"{path} has a header but no data rows")
    x.resize((rows, x.shape[1]), refcheck=False)
    y.resize(rows, refcheck=False)
    return Dataset(x, y)


def _parse_row(path, header, line_no, row) -> np.ndarray:
    """The cells of row as floats; a DataError with the line when the row
    has the wrong length, or with the line and column of the first cell
    that float() rejects."""
    if len(row) != len(header):
        raise DataError(
            f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
        )
    try:
        return np.array(row, dtype=float)
    except ValueError:
        for name, cell in zip(header, row):
            try:
                float(cell)
            except ValueError:
                raise DataError(
                    f"{path}:{line_no}: non-numeric cell {cell!r} "
                    f"in column {name!r}"
                ) from None
        raise


def dataset_to_csv(data: Dataset, path, response: str = "y") -> None:
    """Write a Dataset as CSV: columns x1..xp, then the response."""
    header = [f"x{j + 1}" for j in range(data.p)] + [response]
    out_dir, name = os.path.split(os.path.abspath(path))
    rows = (row.tolist() + [y] for row, y in zip(data.x, data.y.tolist()))
    _write_outputs(out_dir, {name: (header, rows)}, {})


def _read_config(path) -> dict:
    """The JSON object in the file at path; a ConfigError when the file
    cannot be read or holds anything else."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err.strerror}") from None
    except ValueError as err:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _load_config(args) -> PipelineConfig:
    """The config file's document (the defaults without one), with each
    passed flag overriding the key it names."""
    doc = _read_config(args.config) if args.config else {}
    flags = (
        ("pilot", "kind", args.pilot),
        ("pilot", "lambda", args.pilot_lambda),
        ("penalty", "kind", args.penalty),
        ("penalty", "lambda", args.penalty_lambda),
        ("inference", "alpha", args.alpha),
        ("split", "no_split", args.no_split or None),
        ("split", "seed", args.seed),
    )
    for section, key, value in flags:
        if value is not None:
            doc[section] = {**config_section(doc, section), key: value}
    if args.penalty:
        # The inference mode follows the penalty; a censored mode stays.
        inference = config_section(doc, "inference")
        if args.penalty == "ridge" or inference.get("mode", "ridge") == "ridge":
            mode = "ridge" if args.penalty == "ridge" else "unregularized"
            doc["inference"] = {**inference, "mode": mode}
    return PipelineConfig.from_dict(doc)


def _cmd_simulate(args) -> int:
    check_seed(args.seed)
    x, y, beta, _ = _simulate(
        args.model, args.n, args.p, args.beta_scheme, np.random.SeedSequence(args.seed)
    )
    data_path = os.path.join(args.out, "data.csv")
    dataset_to_csv(Dataset(x, y), data_path)
    truth = {
        "model": args.model,
        "n": args.n,
        "p": args.p,
        "seed": args.seed,
        "beta_scheme": args.beta_scheme,
        "beta": beta.tolist(),
    }
    _write_outputs(args.out, {}, {"truth.json": truth})
    print(f"wrote {data_path}")
    return 0


def _cmd_fit(args) -> int:
    """Fit args.data; write report.json, link.csv and inference.csv to
    args.out, and print the fit's and the inference's summaries."""
    report = run_pipeline(ingest_csv(args.data, args.response), _load_config(args))
    link, inf = report.link, report.inference
    link_rows = zip(link.grid.tolist(), link.values.tolist(), link.deriv.tolist())
    columns = (inf.beta_hat, inf.t_stats, inf.ci_lo, inf.ci_hi, inf.p_values)
    inf_rows = zip(range(1, report.p + 1), *(a.tolist() for a in columns))
    tables = {
        "link.csv": (["x", "ghat", "ghat_deriv"], link_rows),
        "inference.csv": (["j", "beta_hat", "T", "ci_lo", "ci_hi", "p_value"], inf_rows),
    }
    _write_outputs(args.out, tables, {"report.json": report.to_dict()})
    print(
        f"fit: p={report.p}, iterations={report.coef.iterations}, "
        f"grad_norm={report.coef.grad_norm:.2e}"
    )
    print(f"coefficient norm {np.linalg.norm(report.coef.beta):.6f}")
    print(
        f"infer: mode={inf.mode}, mu_hat={inf.mu_hat:.6f}, "
        f"sigma2_hat={inf.sigma2_hat:.6f}, alpha={inf.alpha}"
    )
    print(f"rejections at alpha={inf.alpha}: {int(inf.reject.sum())} of {report.p}")
    return 0


def _cmd_experiment(args) -> int:
    custom_config = _read_config(args.config) if args.config else None
    spec = ExperimentSpec(
        name=args.name,
        out_dir=args.out,
        reps=args.reps,
        seed=args.seed,
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

    fit = sub.add_parser("fit", help="fit a model on a CSV dataset, with inference")
    fit.add_argument("--data", required=True)
    fit.add_argument("--response", default="y")
    fit.add_argument("--config", help="pipeline config JSON")
    fit.add_argument("--pilot", choices=PILOT_KINDS)
    fit.add_argument("--lambda", dest="pilot_lambda", type=float)
    fit.add_argument("--penalty", choices=("none", "ridge"))
    fit.add_argument("--penalty-lambda", type=float)
    fit.add_argument("--alpha", type=float)
    fit.add_argument("--no-split", action="store_true")
    fit.add_argument("--seed", type=int)
    fit.add_argument("--out", default="sindex-out")
    fit.set_defaults(func=_cmd_fit)

    exp = sub.add_parser("experiment", help="run a named experiment")
    exp.add_argument("--name", required=True)
    exp.add_argument("--reps", type=int)
    exp.add_argument("--seed", type=int, default=ExperimentSpec.seed)
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
        out = os.path.abspath(args.out)
        while not os.path.exists(out):  # up to the nearest existing path
            out = os.path.dirname(out)
        if not os.path.isdir(out):
            raise ConfigError(f"--out {args.out}: {out} is not a directory")
        return args.func(args)
    except SindexError as err:
        print(f"error: {err}", file=sys.stderr)
        cause = err.cause if isinstance(err, PipelineError) else err
        return 2 if isinstance(cause, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())
