"""CSV ingestion and the command-line front end."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sindex.cli import dataset_to_csv, ingest_csv, main
from sindex.errors import DataError
from sindex.experiments import ExperimentSpec, _simulate, figure2, run_experiment
from sindex.inference import effective_variance_oracle
from sindex.models import Dataset, DesignSpec
from sindex.pipeline import PipelineConfig, SplitConfig, run_pipeline


def write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


def test_ingest_small_file(tmp_path):
    path = tmp_path / "d.csv"
    write(path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
    data = ingest_csv(path, "y")
    assert data.n == 3 and data.p == 2
    assert np.allclose(data.x, [[1, 2], [4, 5], [7, 8]])
    assert np.allclose(data.y, [3, 6, 9])


def test_ingest_response_column_order_preserved(tmp_path):
    path = tmp_path / "d.csv"
    write(path, "y,a,b\n3,1,2\n6,4,5\n")
    data = ingest_csv(path, "y")
    assert np.allclose(data.x, [[1, 2], [4, 5]])


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    write(path, "a,b\n1,2\n")
    with pytest.raises(DataError, match="response"):
        ingest_csv(path, "y")


def test_ingest_parse_error_reports_location(tmp_path):
    path = tmp_path / "d.csv"
    write(path, "a,y\n1,2\nfoo,3\n")
    with pytest.raises(DataError, match=r":3.*'foo'.*'a'"):
        ingest_csv(path, "y")


def test_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    data = Dataset(rng.standard_normal((12, 4)), rng.standard_normal(12))
    path = tmp_path / "rt.csv"
    dataset_to_csv(data, path)
    back = ingest_csv(path, "y")
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.y, data.y)


def test_cli_simulate_fit_infer(tmp_path):
    sim_dir = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "--model",
            "cubic",
            "--n",
            "200",
            "--p",
            "20",
            "--seed",
            "5",
            "--out",
            str(sim_dir),
        ]
    )
    assert rc == 0
    assert (sim_dir / "data.csv").exists()
    fit_dir = tmp_path / "fit"
    rc = main(
        [
            "infer",
            "--data",
            str(sim_dir / "data.csv"),
            "--pilot",
            "ls",
            "--penalty",
            "none",
            "--no-split",
            "--out",
            str(fit_dir),
        ]
    )
    assert rc == 0
    assert (fit_dir / "report.json").exists()
    assert (fit_dir / "inference.csv").exists()
    assert (fit_dir / "link.csv").exists()
    report = json.loads((fit_dir / "report.json").read_text())
    assert report["p"] == 20


def test_cli_config_error_exit_code(tmp_path):
    rc = main(
        ["experiment", "--name", "figure9", "--out", str(tmp_path / "x")]
    )
    assert rc == 2


def test_cli_unknown_model_exit_code(tmp_path):
    rc = main(
        [
            "simulate",
            "--model",
            "probit",
            "--n",
            "10",
            "--p",
            "2",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == 2


def test_cli_numerical_error_exit_code(tmp_path):
    # ls pilot with p > n fails inside the pipeline: exit code 3
    sim_dir = tmp_path / "sim"
    main(
        [
            "simulate",
            "--model",
            "cubic",
            "--n",
            "30",
            "--p",
            "60",
            "--out",
            str(sim_dir),
        ]
    )
    rc = main(
        [
            "infer",
            "--data",
            str(sim_dir / "data.csv"),
            "--pilot",
            "ls",
            "--penalty",
            "none",
            "--no-split",
            "--out",
            str(tmp_path / "fit"),
        ]
    )
    assert rc == 3


def test_experiment_outputs_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    figure2(str(out1), ns=(64,), reps=1, seed=99)
    figure2(str(out2), ns=(64,), reps=1, seed=99)
    for name in ("figure2_losses.csv", "figure2_mean_loss.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_experiment_outputs_identical_across_jobs(tmp_path):
    names = ("figure2_losses.csv", "figure2_mean_loss.csv", "manifest.json")
    outputs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        figure2(str(out), ns=(64, 128), reps=4, seed=99, jobs=jobs)
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 12), st.integers(1, 6)).flatmap(
        lambda shape: arrays(
            np.float64,
            (shape[0], shape[1] + 1),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
)
def test_csv_round_trip_is_bit_identical(table):
    data = Dataset(table[:, :-1], table[:, -1])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rt.csv")
        dataset_to_csv(data, path)
        back = ingest_csv(path, "y")
    assert back.x.tobytes() == data.x.tobytes()
    assert back.y.tobytes() == data.y.tobytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_custom_experiment_rows_equal_direct_runs(tmp_path, jobs):
    doc = {"pilot": {"kind": "ridge", "lambda": 1.0}, "split": {"fraction": 0.5}}
    spec = ExperimentSpec(
        name="custom",
        out_dir=str(tmp_path),
        reps=3,
        seed=11,
        jobs=jobs,
        custom_config={"model": "cloglog", "n": 200, "p": 40, **doc},
    )
    run_experiment(spec)
    lines = (tmp_path / "custom_replications.csv").read_text().splitlines()
    design = DesignSpec.identity(40)
    expected = []
    for rep, seedseq in enumerate(np.random.SeedSequence(11).spawn(3)):
        s_data, s_split = seedseq.spawn(2)
        x, y, beta, _ = _simulate("cloglog", 200, 40, "uniform-sphere", s_data)
        seed = int(s_split.generate_state(1)[0])
        config = PipelineConfig(split=SplitConfig(fraction=0.5, seed=seed))
        report = run_pipeline(Dataset(x, y), config, design=design)
        inf = report.inference
        ev = effective_variance_oracle(report.coef.beta, beta)
        values = (inf.mu_hat, inf.sigma2_hat, ev)
        expected.append(",".join([str(rep)] + [repr(float(v)) for v in values]))
    assert lines == ["rep,mu_hat,sigma2_hat,effective_variance"] + expected


def test_custom_experiment_draws_from_its_covariance(tmp_path):
    outputs = []
    for name, sigma in (("identity", "identity"), ("scaled", (4.0 * np.eye(20)).tolist())):
        spec = ExperimentSpec(
            name="custom",
            out_dir=str(tmp_path / name),
            reps=2,
            seed=3,
            custom_config={
                "model": "cloglog",
                "n": 200,
                "p": 20,
                "sigma": sigma,
                "pilot": {"kind": "ls"},
            },
        )
        run_experiment(spec)
        outputs.append((tmp_path / name / "custom_replications.csv").read_bytes())
    assert outputs[0] != outputs[1]


def test_experiment_csv_headers(fig1_result):
    _, _, out = fig1_result
    lines = (out / "figure1_zscores.csv").read_text().splitlines()
    assert lines[0] == "model,rep,z"
    assert len(lines) == 1 + 2 * 200  # two models, 200 reps each
    assert (out / "manifest.json").exists()


def test_cli_experiment_subcommand(tmp_path):
    out = tmp_path / "exp"
    rc = main(
        [
            "experiment",
            "--name",
            "figure2",
            "--reps",
            "2",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "figure2"
    assert os.path.exists(out / "figure2_mean_loss.csv")
