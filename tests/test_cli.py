"""CSV ingestion, the command-line front end and the files it writes."""

import ast
import csv
import glob
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import kstest

import sindex
from sindex import cli, experiments
from sindex.cli import _build_parser, _load_config, dataset_to_csv, ingest_csv, main
from sindex.errors import ConfigError, DataError
from sindex.experiments import ExperimentSpec, _simulate, run_experiment
from sindex import _linalg, pilot, pipeline, surrogate
from sindex.inference import effective_variance_oracle
from sindex.models import Dataset, DesignSpec, sample_coefficients, sample_design
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


def test_ingest_rejects_a_repeated_response_column(tmp_path):
    # The second column named like the response would otherwise become a
    # design column; the CLI exits 2 and writes nothing.
    path = tmp_path / "d.csv"
    write(path, "y,a,y\n1,2,3\n4,5,6\n")
    with pytest.raises(DataError, match="'y' is named more than once"):
        ingest_csv(path, "y")
    out = tmp_path / "fit"
    assert main(["fit", "--data", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_ingest_parse_error_reports_location(tmp_path):
    path = tmp_path / "d.csv"
    write(path, "a,y\n1,2\nfoo,3\n")
    with pytest.raises(DataError, match=r":3.*'foo'.*'a'"):
        ingest_csv(path, "y")


@pytest.mark.parametrize(
    "bad_line, cells, message",
    [
        (2500, "1.5,2.5", r":2500: expected 3 fields, got 2$"),
        (2999, "1.5,x,2.5", r":2999: non-numeric cell 'x' in column 'b'$"),
        (2001, "", r":2001: expected 3 fields, got 0$"),
    ],
)
def test_ingest_reports_a_bad_row_deep_in_the_file(tmp_path, bad_line, cells, message):
    # Rows are parsed as they are read; the first bad one is still named by
    # its line (the header is line 1) and, for a cell, by its column.
    lines = ["a,b,y"] + [f"{i},{i + 0.5},{-i}" for i in range(2, 3002)]
    lines[bad_line - 1] = cells
    lines[3000] = "z,1,2"  # a later bad row (line 3001) is not the one reported
    path = tmp_path / "d.csv"
    write(path, "\n".join(lines) + "\n")
    with pytest.raises(DataError, match=message):
        ingest_csv(path, "y")
    lines[bad_line - 1] = lines[3000] = "1,2,3"
    write(path, "\n".join(lines) + "\n")
    data = ingest_csv(path, "y")
    assert data.x.shape == (3000, 2) and data.x.flags.c_contiguous
    assert data.x[0].tolist() == [2.0, 2.5] and data.y[-2] == -3000.0



@pytest.mark.parametrize(
    "text, call, message",
    [
        ("", lambda path: ingest_csv(path, "y"), "is empty"),
        ("a,y\n", lambda path: ingest_csv(path, "y"), "has a header but no data rows"),
        (None, cli._read_config, "cannot read config .*: No such file or directory"),
    ],
    ids=["empty", "header-only", "missing-config"],
)
def test_unreadable_inputs_are_config_errors(tmp_path, text, call, message):
    path = tmp_path / "in.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        call(path)

@pytest.mark.parametrize(
    "kind, message",
    [
        ("missing", "no such file: "),
        ("directory", "Is a directory"),
        ("not-utf8", "is not UTF-8 text"),
    ],
)
def test_fit_data_it_cannot_read_exits_2(tmp_path, capsys, kind, message):
    # Like --config, a --data path that cannot be read as text is a data
    # error: exit 2 with a message, not a traceback.
    path = tmp_path / "d.csv"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes("a,caf\xe9,y\n1,2,3\n".encode("latin-1"))
    out = tmp_path / "fit"
    assert main(["fit", "--data", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--data", None],
        ["simulate", "--model", "cubic", "--n", "40", "--p", "4"],
        ["experiment", "--name", "figure1", "--reps", "1"],
    ],
    ids=["fit", "simulate", "experiment"],
)
@pytest.mark.parametrize("below", ["", "sub/dir"], ids=["file", "below-a-file"])
def test_out_naming_a_file_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, small_data, argv, below
):
    def work(*_args, **_kwargs):
        raise AssertionError("the command ran before it checked --out")

    for name in ("run_pipeline", "_simulate", "run_experiment"):
        monkeypatch.setattr(cli, name, work)
    out = tmp_path / "out"
    out.write_text("kept\n")
    argv = [small_data if arg is None else arg for arg in argv]
    assert main([*argv, "--out", str(out / below)]) == 2
    assert f"{out} is not a directory" in capsys.readouterr().err
    assert out.read_text() == "kept\n" and os.listdir(tmp_path) == ["out"]


def test_cli_fit_writes_what_run_pipeline_gives(tmp_path, capsys):
    sim = tmp_path / "sim"
    argv = ["--model", "cubic", "--n", "200", "--p", "5", "--seed", "3"]
    assert main(["simulate", *argv, "--out", str(sim)]) == 0
    capsys.readouterr()
    doc = {"pilot": {"kind": "ls", "lambda": None}, "split": {"seed": 11}}
    cfg, out = tmp_path / "cfg.json", tmp_path / "fit"
    cfg.write_text(json.dumps(doc))
    data = str(sim / "data.csv")
    assert main(["fit", "--data", data, "--config", str(cfg), "--out", str(out)]) == 0
    report = run_pipeline(ingest_csv(data, "y"), PipelineConfig.from_dict(doc))
    beta, inf = report.coef.beta, report.inference
    assert capsys.readouterr().out.splitlines() == [
        f"fit: p=5, iterations={report.coef.iterations}, "
        f"grad_norm={report.coef.grad_norm:.2e}",
        f"coefficient norm {np.linalg.norm(beta):.6f}",
        f"infer: mode={inf.mode}, mu_hat={inf.mu_hat:.6f}, "
        f"sigma2_hat={inf.sigma2_hat:.6f}, alpha={inf.alpha}",
        f"rejections at alpha={inf.alpha}: {int(inf.reject.sum())} of 5",
    ]
    assert (out / "report.json").read_text() == report.to_json(indent=2) + "\n"
    link = report.link
    rows = zip(link.grid.tolist(), link.values.tolist(), link.deriv.tolist())
    assert _read_csv(out / "link.csv") == (
        ["x", "ghat", "ghat_deriv"], [[str(v) for v in row] for row in rows]
    )
    assert sorted(os.listdir(out)) == ["inference.csv", "link.csv", "report.json"]


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
            "fit",
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


def _read_csv(path):
    """(header, rows) of a CSV file whose rows all end in CRLF."""
    raw = path.read_bytes()
    assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n")
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    return header, rows


def _column(rows, k):
    """The k-th column of CSV rows as float64 bytes."""
    return np.array([float(row[k]) for row in rows]).tobytes()


def test_written_files_parse_back_bit_for_bit(tmp_path, monkeypatch):
    sim_dir, fit_dir = tmp_path / "sim", tmp_path / "fit"
    flags = ["--model", "cubic", "--n", "200", "--p", "20", "--seed", "5"]
    assert main(["simulate", *flags, "--out", str(sim_dir)]) == 0
    x, y, beta, _ = _simulate("cubic", 200, 20, "uniform-sphere", np.random.SeedSequence(5))
    header, rows = _read_csv(sim_dir / "data.csv")
    assert header == [f"x{j}" for j in range(1, 21)] + ["y"]
    assert len(rows) == 200
    table = np.array([[float(cell) for cell in row] for row in rows])
    assert table.tobytes() == np.column_stack((x, y)).tobytes()
    truth = json.loads((sim_dir / "truth.json").read_text())
    assert np.array(truth["beta"]).tobytes() == beta.tobytes()
    assert (truth["model"], truth["n"], truth["p"], truth["seed"]) == ("cubic", 200, 20, 5)

    # Keep the report the CLI computes, to compare its files against.
    reports, run_pipeline = [], cli.run_pipeline

    def run_and_keep(*args):
        reports.append(run_pipeline(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "run_pipeline", run_and_keep)
    data = str(sim_dir / "data.csv")
    flags = ["--pilot", "ls", "--penalty", "none", "--no-split"]
    assert main(["fit", "--data", data, *flags, "--out", str(fit_dir)]) == 0
    [report] = reports
    assert sorted(os.listdir(fit_dir)) == ["inference.csv", "link.csv", "report.json"]

    header, rows = _read_csv(fit_dir / "link.csv")
    assert header == ["x", "ghat", "ghat_deriv"]
    assert len(rows) == len(report.link.grid)
    for k, values in enumerate((report.link.grid, report.link.values, report.link.deriv)):
        assert _column(rows, k) == values.tobytes()

    inf = report.inference
    header, rows = _read_csv(fit_dir / "inference.csv")
    assert header == ["j", "beta_hat", "T", "ci_lo", "ci_hi", "p_value"]
    assert len(rows) == 20
    assert [row[0] for row in rows] == [str(j) for j in range(1, 21)]
    columns = (inf.beta_hat, inf.t_stats, inf.ci_lo, inf.ci_hi, inf.p_values)
    for k, values in enumerate(columns, start=1):
        assert _column(rows, k) == values.tobytes()

    text = (fit_dir / "report.json").read_text()
    doc = report.to_dict()
    assert json.loads(text) == doc
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _opens_for_writing(call) -> bool:
    """Whether call is open(...) with a mode that is not a read-only string."""
    if getattr(call.func, "id", getattr(call.func, "attr", None)) != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wax+"))


def _writing_scopes(node, scope, found):
    """Add to found the innermost function enclosing each open-for-writing
    under node, with scope naming the function that node is in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _opens_for_writing(child):
            found.add(scope)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        _writing_scopes(child, inner, found)
    return found


def _sources() -> dict:
    """The text of each module of the package, by file name."""
    paths = sorted(glob.glob(os.path.join(os.path.dirname(sindex.__file__), "*.py")))
    return {os.path.basename(path): pathlib.Path(path).read_text() for path in paths}


def test_only_the_writer_opens_files_for_writing():
    # The file formats live in one function; any other writer would fork them.
    writers = set()
    for module, text in _sources().items():
        found = _writing_scopes(ast.parse(text), "<module>", set())
        writers |= {(module[:-3], fn) for fn in found}
    assert writers == {("experiments", "_write_outputs")}


def _references(tree) -> set:
    """Names that tree reads, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def test_every_import_is_used():
    # No linter runs on this package, so this is the unused-import rule.
    unused = []
    for module, text in _sources().items():
        if module == "__init__.py":
            continue
        tree, lines = ast.parse(text), text.splitlines()
        used = _references(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append((module, name))
    assert unused == []


def _bound_names(statement) -> list:
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return [n.id for t in filter(None, targets) for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_private_module_name_is_referenced():
    # A module-level _name is not part of the API, so if nothing in the
    # package reads it, nothing needs it.
    trees = {module: ast.parse(text) for module, text in _sources().items()}
    referenced = set().union(*map(_references, trees.values()))
    unreferenced = [
        (module, name)
        for module, tree in trees.items() if module != "__init__.py"
        for statement in tree.body for name in _bound_names(statement)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]
    assert unreferenced == []


#: The Cholesky entry points that sindex._linalg keeps.
_CHOLESKY = {"cho_factor", "cho_solve"}


def test_no_module_takes_cholesky_from_scipy():
    # Every factorization and solve goes through sindex._linalg, whose
    # matrices were checked once; scipy's wrappers rescan every operand.
    # The modules import the two by name, so no attribute reads them.
    found = []
    for module, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                found += [(module, a.name) for a in node.names if a.name in _CHOLESKY]
            elif isinstance(node, ast.Attribute) and node.attr in _CHOLESKY:
                found.append((module, node.attr))
    assert found == []


#: The scipy modules that only sindex._linalg may import.
_RAW_LINEAR_ALGEBRA = {"scipy.linalg.lapack", "scipy.linalg.blas"}


def test_only_linalg_calls_lapack_and_blas():
    # A factor is the lower triangle with the upper one zeroed, and only
    # _linalg's entries know it; a raw routine elsewhere could take the
    # wrong triangle.
    found = []
    for module, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names] + [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            found += [(module, name) for name in names if name in _RAW_LINEAR_ALGEBRA]
    assert {module for module, _ in found} == {"_linalg.py"}


#: The factorizations and inverses that only sindex._linalg may call.
_FACTOR_OR_INVERSE = {"cholesky", "inv", "solve_triangular"}


def test_only_linalg_factors_and_inverts():
    # Every factor comes from _linalg.cho_factor and every inverse from
    # _linalg.tri_inverse, whatever numpy or scipy name would also serve.
    found = []
    for module, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found += [(module, a.name) for a in node.names if a.name in _FACTOR_OR_INVERSE]
            elif isinstance(node, ast.Attribute) and node.attr in _FACTOR_OR_INVERSE:
                found.append((module, node.attr))
    assert [(module, name) for module, name in found if module != "_linalg.py"] == []


#: Errors that no module catches.
_UNCAUGHT = {"PipelineError", "KernelOverflowError"}


def test_no_module_catches_a_failed_pipeline_or_kernel():
    # A caller that catches these re-runs or hides a failed fit; the one
    # fallback, a fixed bandwidth that yields to the theory bandwidth, is
    # deconv.select_bandwidth's.  The CLI's SindexError handler stays.
    found = []
    for module, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = _references(ast.Expression(node.type))
                found += [(module, name) for name in sorted(_UNCAUGHT & names)]
    assert found == []


def test_only_the_pilot_module_reads_the_pilot_links():
    # The pilot fit evaluates its kind's working link once and keeps the
    # indices and score residual; every later step takes them from the fit.
    readers = {
        module
        for module, text in _sources().items()
        if "PILOT_LINKS" in _references(ast.parse(text))
    }
    assert readers == {"pilot.py"}


@pytest.mark.parametrize("name", sorted(_CHOLESKY))
def test_one_cholesky_object_under_every_name(name):
    # The benchmark's tracer counts factorizations where pilot, surrogate
    # and _linalg look cho_factor up; each name must be the one entry.
    assert getattr(pilot, name) is getattr(surrogate, name) is getattr(_linalg, name)


def test_cli_config_error_exit_code(tmp_path):
    rc = main(
        ["experiment", "--name", "figure9", "--out", str(tmp_path / "x")]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "cloglog", "--n", "20", "--p", "3"],
        ["experiment", "--name", "figure1", "--reps", "1"],
        ["experiment", "--name", "figure2", "--reps", "1"],
    ],
)
def test_cli_rejects_a_negative_seed(tmp_path, capsys, argv):
    # SeedSequence rejects a negative entropy with a ValueError; the command
    # reports the seed as a configuration error before it draws anything.
    out = tmp_path / "x"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be an integer >= 0, not -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    out = tmp_path / "x"
    argv = ["experiment", "--name", "figure1", "--reps", "1", "--jobs", jobs]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"jobs must be >= 1, not {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, models",
    [("figure2", ["cubic", "piecewise"]), ("figure3", ["cubic", "piecewise"]), ("custom", ["cubic"])],
)
def test_cli_experiment_rejects_models_it_cannot_run(tmp_path, name, models):
    # figure2 and figure3 run one model, and a custom document names its own.
    cfg = tmp_path / "custom.json"
    cfg.write_text('{"model": "cloglog", "n": 50, "p": 5}')
    out = tmp_path / "x"
    rc = main(
        ["experiment", "--name", name, "--reps", "1", "--models", *models,
         "--config", str(cfg), "--out", str(out)]
    )
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "name, models, message",
    [
        ("figure1", ["nope"], "unknown model variant 'nope'"),
        ("figure2", ["nope"], "unknown model variant 'nope'"),
        ("figure3", ["nope"], "unknown model variant 'nope'"),
        ("table1", ["cubic", "nope"], "unknown model variant 'nope'"),
        ("figure1", ["cubic", "cubic"], "each model may be named once"),
        ("table1", ["cubic", "cubic"], "each model may be named once"),
    ],
)
def test_cli_experiment_rejects_unknown_or_repeated_models(
    tmp_path, capsys, monkeypatch, name, models, message
):
    # The names are checked before any replication runs.
    runs = []
    monkeypatch.setattr(experiments, "_run_groups", lambda *args: runs.append(args))
    out = tmp_path / "x"
    argv = ["experiment", "--name", name, "--reps", "1", "--models", *models]
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"deconv": {"bandwidth": {"c_h": 0.0}}}, "bandwidth constant c_h must be positive"),
        ({"deconv": {"bandwidth": {"c_h": -2}}}, "bandwidth constant c_h must be positive"),
        ({"pilot": {"kind": "probit"}}, "unknown pilot kind 'probit'"),
        ({"pilot": {"kind": "ridge", "lambda": 0.0}}, "ridge penalty must be positive"),
        ({"pilot": {"lambda": -1}}, "ridge penalty must be positive"),
    ],
)
def test_out_of_range_config_exits_2_before_the_pilot(
    tmp_path, capsys, monkeypatch, small_data, doc, message
):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fit_pilot(*args, **kwargs)

    fit_pilot = pipeline.fit_pilot
    monkeypatch.setattr(pipeline, "fit_pilot", counting)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    rc = main(["fit", "--data", small_data, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "text, flags",
    [
        ('{"inference": "ridge"}', []),
        ('{"inference": "ridge"}', ["--alpha", "0.1"]),
        ('{"deconv": {"bandwidth": 2.5}}', []),
        ('{"pilot": {"kind": "ridge",}}', []),
        ('["pilot"]', []),
    ],
)
def test_cli_malformed_config_exit_code(tmp_path, capsys, text, flags):
    sim_dir = tmp_path / "sim"
    main(["simulate", "--model", "cubic", "--n", "40", "--p", "4", "--out", str(sim_dir)])
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    data, out = str(sim_dir / "data.csv"), str(tmp_path / "fit")
    rc = main(["fit", "--data", data, "--config", str(cfg), *flags, "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    """data.csv of a small simulated dataset."""
    out = tmp_path_factory.mktemp("sim")
    main(["simulate", "--model", "cubic", "--n", "40", "--p", "4", "--out", str(out)])
    return str(out / "data.csv")


@pytest.mark.parametrize(
    "doc, section, key",
    [
        ({"pilot": {"lamda": 50}}, "pilot", "lamda"),
        ({"split": {"no-split": True}}, "split", "no-split"),
        ({"deconv": {"bandwith": {"h": 1.0}}}, "deconv", "bandwith"),
        ({"deconv": {"grid": {"point": 11}}}, "deconv.grid", "point"),
        ({"deconv": {"bandwidth": {"c": 1.0}}}, "deconv.bandwidth", "c"),
    ],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, small_data, doc, section, key):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    rc = main(["fit", "--data", small_data, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert f"unknown key {key!r} in config section {section!r}" in capsys.readouterr().err
    # A custom experiment checks its pipeline sections the same way.
    cfg.write_text(json.dumps({"model": "cubic", "n": 40, "p": 4, **doc}))
    args = ["--name", "custom", "--reps", "1", "--config", str(cfg), "--out", str(out)]
    assert main(["experiment", *args]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, flags",
    [
        ({"split": {"fraction": "0.5"}}, []),
        ({"deconv": {"grid": {"points": 1.5}}}, []),
        ({"deconv": {"grid": {"points": -1}}}, []),
        ({"deconv": {"kernel": ["x"]}}, []),
        ({"pilot": {"lambda": "1.0"}}, []),
        ({"penalty": {"lambda": None}}, []),
        ({"split": {"no_split": 1}}, []),
        ({"split": {"seed": True}}, []),
        ({"inference": {"alpha": True}}, []),
        ({"inference": {"alpha": 1.5}}, []),
        ({}, ["--seed", "-1"]),
        ({"deconv": {"eps": float("nan")}}, []),
        ({"deconv": {"eps": float("inf")}}, []),
        ({"pilot": {"lambda": float("nan")}}, []),
        ({"deconv": {"bandwidth": {"c_h": float("nan")}}}, []),
        ({"deconv": {"bandwidth": {"mode": "fixed", "h": float("nan")}}}, []),
        ({"penalty": {"lambda": float("nan")}}, []),
    ],
)
def test_mistyped_or_out_of_range_config_exits_2(tmp_path, capsys, small_data, doc, flags):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))  # NaN and Infinity, which json.load reads
    rc = main(["fit", "--data", small_data, "--config", str(cfg), *flags, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert not doc or _last_key(doc) in err
    assert not out.exists()


def _last_key(doc) -> str:
    """The key of a config document's last entry, in its innermost section."""
    key, value = list(doc.items())[-1]
    return _last_key(value) if isinstance(value, dict) else key


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"n": "40"}, "config value n must be int, not '40'"),
        ({"n": 40.5}, "config value n must be int, not 40.5"),
        ({"p": True}, "config value p must be int, not True"),
        ({"sigma": "eye"}, "sigma must be 'identity' or a 4 x 4 list of numbers"),
        ({"sigma": [[1.0, 0.0], [0.0, 1.0]]}, "sigma must be 'identity' or a 4 x 4"),
        ({"sigma": [[1.0], "ab", [], []]}, "sigma must be 'identity' or a 4 x 4"),
        ({"beta_scheme": 3}, "config value beta_scheme must be str, not 3"),
        ({"model": ["cubic"]}, "config value model must be str"),
        ({"n": 0}, "need n >= 1 and p >= 1"),
        ({"nn": 40}, "unknown key 'nn' in the config; choose from ['beta_scheme', "),
    ],
)
def test_custom_document_keys_are_checked(tmp_path, capsys, entries, message):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"model": "cubic", "n": 40, "p": 4, **entries}))
    args = ["--name", "custom", "--reps", "1", "--config", str(cfg), "--out", str(out)]
    assert main(["experiment", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


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
            "fit",
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


@pytest.mark.parametrize(
    "scale, doc",
    [(1e160, {}), (1.0, {"pilot": {"lambda": 1e300}}), (1.0, {"pilot": {"lambda": 1e-300}})],
    ids=["overflowing-data", "lambda-1e300", "lambda-1e-300"],
)
def test_cli_extreme_inputs_exit_3(tmp_path, capsys, scale, doc):
    # Each ends in a numerical error of the pilot stage, not a traceback.
    x, y, _, _ = _simulate("cubic", 50, 100, "uniform-sphere", np.random.SeedSequence(4))
    data, cfg = tmp_path / "data.csv", tmp_path / "cfg.json"
    dataset_to_csv(Dataset(x * scale, y), data)
    cfg.write_text(json.dumps(doc))
    argv = ["fit", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "fit")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: [pilot] ")


def _fit_config(*flags):
    args = _build_parser().parse_args(["fit", "--data", "d.csv", *flags])
    return _load_config(args)


def test_cli_flags_override_only_the_keys_they_name(tmp_path):
    cfg = tmp_path / "cfg.json"
    doc = {
        "pilot": {"kind": "ridge", "lambda": 0.5},
        "inference": {"mode": "ridge", "alpha": 0.1},
        "split": {"no_split": True, "seed": 7},
    }
    cfg.write_text(json.dumps(doc))
    assert _fit_config("--config", str(cfg), "--alpha", "0.01").alpha == 0.01
    config = _fit_config("--config", str(cfg), "--seed", "3")
    assert config.split == SplitConfig(no_split=True, seed=3)
    assert config.alpha == 0.1
    config = _fit_config("--config", str(cfg), "--pilot", "ridge")
    assert (config.pilot_lam, config.alpha, config.split.seed) == (0.5, 0.1, 7)
    # Flags alone change the defaults only where they are passed.
    config = _fit_config("--pilot", "ls", "--penalty", "none", "--no-split")
    expected = PipelineConfig(
        pilot_kind="ls",
        penalty="none",
        inference_mode="unregularized",
        split=SplitConfig(no_split=True),
    )
    assert config.to_dict() == expected.to_dict()


def test_experiment_outputs_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(ExperimentSpec("figure2", str(out1), reps=1, seed=99))
    run_experiment(ExperimentSpec("figure2", str(out2), reps=1, seed=99))
    for name in ("figure2_losses.csv", "figure2_mean_loss.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_experiment_outputs_identical_across_jobs(tmp_path):
    custom = {"model": "cloglog", "n": 200, "p": 40, "split": {"fraction": 0.5}}
    runs = {
        # cloglog is 500 x 50 and xsqrt 500 x 200: one pool runs both shapes.
        "figure1": dict(models=("cloglog", "xsqrt"), reps=3),
        "figure2": dict(reps=4),
        "table1": dict(models=("logit", "cubic+"), reps=2),
        "figure3": dict(reps=2),
        "custom": dict(reps=2, custom_config=custom),
    }
    for name, kwargs in runs.items():
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / name / f"jobs{jobs}"
            run_experiment(ExperimentSpec(name, str(out), seed=99, jobs=jobs, **kwargs))
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outputs[0] == outputs[1], name


def test_each_experiment_runs_one_pool(tmp_path, monkeypatch):
    pools = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    custom = {"model": "cloglog", "n": 200, "p": 20, "pilot": {"kind": "ls"}}
    runs = {
        "figure1": dict(models=("cloglog", "cubic")),
        "figure2": {},
        "table1": dict(models=("logit", "cubic")),
        "figure3": {},
        "custom": dict(custom_config=custom),
    }
    for name, kwargs in runs.items():
        pools.clear()
        run_experiment(ExperimentSpec(name, str(tmp_path / name), reps=2, jobs=2, **kwargs))
        assert pools == [2], name


def test_run_experiment_dispatches_every_name(tmp_path, monkeypatch):
    custom = {"model": "cloglog", "n": 200, "p": 20, "pilot": {"kind": "ls"}}
    models = {
        "figure1": ["cloglog"],
        "figure2": ["piecewise"],
        "figure3": ["cloglog"],
        "table1": ["cubic"],
        "custom": None,
    }
    assert set(models) == set(experiments.REPS)
    for name, restricted in models.items():
        out = tmp_path / name
        spec = ExperimentSpec(name, str(out), reps=1, models=restricted, custom_config=custom)
        manifest = run_experiment(spec)
        assert (manifest["experiment"], manifest["reps"]) == (name, 1)
        written = json.loads((out / "manifest.json").read_text())
        assert written == json.loads(json.dumps(manifest))
    # Without reps the paper-scale count comes from the table.
    monkeypatch.setitem(experiments.REPS, "figure2", (50, 1))
    out = tmp_path / "paper"
    manifest = run_experiment(ExperimentSpec("figure2", str(out), paper_scale=True))
    assert manifest["reps"] == 1
    assert manifest["ns"] == [32, 64, 128, 256, 512, 1024]


def test_table1_fits_each_pilot_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fit_coefficients(*args, **kwargs)

    fit_coefficients = pilot.fit_coefficients
    monkeypatch.setattr(pilot, "fit_coefficients", counting)
    run_experiment(ExperimentSpec("table1", str(tmp_path), models=("logit",), reps=2))
    assert len(calls) == 2  # one logistic MLE per replication


def test_simulate_leaves_its_seed_sequence_unchanged():
    seedseq = np.random.SeedSequence(7)
    first = _simulate("cloglog", 30, 5, "uniform-sphere", seedseq)
    second = _simulate("cloglog", 30, 5, "uniform-sphere", seedseq)
    for a, b in zip(first[:3], second[:3]):
        assert a.tobytes() == b.tobytes()
    # The draws are those of spawn(3) on a fresh copy.
    s_beta, s_x, _ = np.random.SeedSequence(7).spawn(3)
    design = DesignSpec.identity(5)
    assert first[0].tobytes() == sample_design(30, design, s_x).tobytes()
    beta = sample_coefficients(5, "uniform-sphere", design, s_beta)
    assert first[2].tobytes() == beta.tobytes()


def _blas_threads(*_args):
    return [get() for get, _ in experiments._openblas_thread_controls()]


def test_replications_run_on_one_blas_thread():
    controls = experiments._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS that reports its thread count is loaded")
    before = _blas_threads()
    try:
        for _, set_threads in controls:
            set_threads(2)
        for jobs in (1, 2):
            seen = experiments._map_reps(_blas_threads, [(0,), (1,)], jobs)
            assert seen == [[1] * len(controls)] * 2, jobs
            assert _blas_threads() == [2] * len(controls)
    finally:
        for (_, set_threads), threads in zip(controls, before):
            set_threads(threads)


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


def test_response_name_with_comma_is_quoted(tmp_path):
    data = Dataset(np.array([[0.1, -2.0], [3.5, 1e-300]]), np.array([1.0, 0.25]))
    path = tmp_path / "q.csv"
    dataset_to_csv(data, path, response="y,1")
    with open(path, newline="") as handle:
        assert handle.readline() == 'x1,x2,"y,1"\r\n'
    back = ingest_csv(path, "y,1")
    assert back.x.tobytes() == data.x.tobytes()
    assert back.y.tobytes() == data.y.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 300),
        elements=st.one_of(
            st.floats(-8.0, 8.0),
            st.sampled_from([-1.0, 0.0, 0.5, 2.0]),  # ties
            st.floats(allow_nan=False),
        ),
    )
)
def test_ks_distance_is_bit_identical_to_scipy(sample):
    assert experiments._ks_distance(sample) == kstest(sample, "norm").statistic


@pytest.mark.parametrize(
    "sample",
    [[0.3], [-2.5], [0.0, 0.0, 0.0], [1.0, -1.0, 1.0, 0.2, -1.0]],
    ids=["one", "one-negative", "all-tied", "ties"],
)
def test_ks_distance_small_and_tied_samples(sample):
    assert experiments._ks_distance(sample) == kstest(sample, "norm").statistic


@pytest.mark.parametrize("where", [0, 2, 4])
def test_ks_distance_propagates_nan(where):
    sample = np.array([0.4, -1.2, 2.0, 0.1, -0.3])
    sample[where] = np.nan
    assert np.isnan(kstest(sample, "norm").statistic)
    assert np.isnan(experiments._ks_distance(sample))


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
