"""Command line driver: configs, grid expansion, reports, exit codes."""

import csv
import json

import numpy as np
import pytest

import fyinv.cli
from fyinv import FitResult, build_example
from fyinv.cli import (
    CSV_COLUMNS,
    RunConfig,
    _build_cells,
    _fmt,
    _mean_se,
    _synth_cell,
    build_parser,
    grad_check,
    load_config,
    main,
)


def _cfg_file(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# configuration


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(experiment="Z")
    with pytest.raises(ValueError):
        RunConfig(methods=("FY", "NEWTON"))
    with pytest.raises(ValueError):
        RunConfig(noise="gaussian")
    with pytest.raises(ValueError):
        RunConfig(replications=0)
    with pytest.raises(ValueError):
        RunConfig(sample_sizes=(50, 0))
    # an empty list ran no cell, wrote a header-only report and exited 0
    for key in ("methods", "sample_sizes", "lambdas"):
        for empty in ((), []):
            with pytest.raises(ValueError, match="empty"):
                RunConfig(**{key: empty})
    for key in ("replications", "n_eval", "sp_n", "sp_nodes", "sp_edges", "sp_m"):
        for bad in (0, 1.5, float("nan"), True):
            with pytest.raises(ValueError):
                RunConfig(**{key: bad})
    # these constructed, then failed every spath cell with exit code 1
    for key, bad in (("sp_nodes", 45.5), ("sp_nodes", 1), ("sp_nodes", 45.0), ("sp_edges", -1), ("sp_m", 1)):
        with pytest.raises(ValueError):
            RunConfig(**{key: bad})
    # so did an edge count the grid cannot hold and a split with an empty side
    with pytest.raises(ValueError, match="num_edges must be in"):
        RunConfig(experiment="spath", sp_edges=200)
    with pytest.raises(ValueError, match="empty side"):
        RunConfig(experiment="spath", sp_n=1)
    # only the spath pipeline reads them
    RunConfig(sp_edges=200, sp_n=1)
    for bad in (2.5, float("nan")):
        with pytest.raises(ValueError):
            RunConfig(sample_sizes=(50, bad))
    for bad in (-1, 1.5, float("nan"), True):
        with pytest.raises(ValueError):
            RunConfig(seed=bad)
    with pytest.raises(ValueError):
        RunConfig(lambdas=(-0.1,))
    with pytest.raises(ValueError):
        RunConfig(lambdas=(0.1, float("nan")))
    with pytest.raises(ValueError):
        RunConfig(lambdas=(0.1, float("inf")))
    for bad in (("a",), (None,), (True,)):
        with pytest.raises(ValueError):
            RunConfig(lambdas=bad)
    for key in ("sigma", "sp_sigma"):
        for bad in (-0.1, float("nan"), float("inf"), None, "1", True):
            with pytest.raises(ValueError):
                RunConfig(**{key: bad})
    for bad in (5, None):
        with pytest.raises(ValueError):
            RunConfig(out=bad)
    assert RunConfig(experiment="spath").experiment == "spath"
    # KKA has no KKT form on the ball (E) or the path polytope (spath)
    for experiment in ("E", "spath"):
        with pytest.raises(ValueError, match="KKT form"):
            RunConfig(experiment=experiment, methods=("FY", "KKA"))
    assert RunConfig(experiment="D", methods=("KKA",)).methods == ("KKA",)
    assert RunConfig(n_eval=np.int64(5), sample_sizes=(np.int64(5),)).n_eval == 5
    assert RunConfig(seed=np.int64(0)).seed == 0
    assert RunConfig(lambdas=(0.0,)).lambdas == (0.0,)  # lam 0 = plain subopt
    # a bare value where a sequence belongs; a list is stored as a tuple
    for key, bad in (("methods", "FY"), ("sample_sizes", 100), ("lambdas", 0.1)):
        with pytest.raises(ValueError, match="must be a list"):
            RunConfig(**{key: bad})
    cfg = RunConfig(methods=["FY", "SPA"], sample_sizes=[50], lambdas=[0.1, 1.0])
    assert (cfg.methods, cfg.sample_sizes, cfg.lambdas) == (("FY", "SPA"), (50,), (0.1, 1.0))


def test_load_config_round_trip(tmp_path):
    p = _cfg_file(
        tmp_path,
        "experiment: B\nmethods: [FY, SPA]\nsample_sizes: [50, 100]\n"
        "lambdas: [0.1, 1.0]\nreplications: 3\nnoise: none\n",
    )
    cfg = load_config(p)
    assert cfg.experiment == "B"
    assert cfg.methods == ("FY", "SPA")
    assert cfg.sample_sizes == (50, 100)
    assert cfg.lambdas == (0.1, 1.0)
    assert cfg.replications == 3


def test_load_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(_cfg_file(tmp_path, "experiment: C\nlearning_rate: 0.5\n"))


def test_load_config_requires_lists(tmp_path):
    # a bare string would be split into characters, a bare number not iterate
    for text in ("methods: FY\n", "sample_sizes: 100\n", "lambdas: 0.1\n"):
        with pytest.raises(ValueError, match="must be a list"):
            load_config(_cfg_file(tmp_path, text))


def test_load_config_rejects_non_mapping(tmp_path):
    with pytest.raises(ValueError, match="mapping"):
        load_config(_cfg_file(tmp_path, "- a\n- b\n"))


def test_load_config_empty_file_gives_defaults(tmp_path):
    cfg = load_config(_cfg_file(tmp_path, ""))
    assert cfg == RunConfig()


# ---------------------------------------------------------------------------
# grid expansion


def test_build_cells_lambda_expansion_fy_only():
    cfg = RunConfig(
        methods=("FY", "SUBOPT"), sample_sizes=(50,), lambdas=(0.1, 1.0), replications=2
    )
    groups = _build_cells(cfg)
    keys = [k for k, _ in groups]
    assert keys == [
        ("C", "FY", 50, 0.1),
        ("C", "FY", 50, 1.0),
        ("C", "SUBOPT", 50, None),
    ]
    for key, cells in groups:
        assert len(cells) == 2
        assert all(c[:3] == key[1:] for c in cells)


def test_build_cells_seed_derivation():
    cfg = RunConfig(sample_sizes=(50, 100), replications=3, seed=2)
    groups = _build_cells(cfg)
    seeds = [seed for _, cells in groups for (_, _, _, seed) in cells]
    assert seeds == [2 * 1_000_003 + i for i in range(6)]
    assert len(set(seeds)) == len(seeds)


def test_build_cells_spath_ignores_sample_sizes_and_lambdas():
    cfg = RunConfig(
        experiment="spath", methods=("FY",), sample_sizes=(50, 100), lambdas=(0.1, 1.0),
        replications=2, sp_n=77,
    )
    groups = _build_cells(cfg)
    assert len(groups) == 1
    key, cells = groups[0]
    assert key == ("spath", "FY", 77, None)
    assert all(n == 77 for _, n, _, _ in cells)


def test_synth_cell_dispatches_method_lam_and_seed(monkeypatch):
    _, theta_star, _ = build_example("C")
    fixed = FitResult(theta_star, 0, 0.0, np.zeros(0), 0.0, {"risk": 0.0})
    calls = []
    for name in ("fy_sgd_fit", "subopt_fit", "kka_fit", "spa_fit"):
        def record(fp, ds, cfg, name=name):
            calls.append((name, cfg))
            return fixed

        monkeypatch.setattr(fyinv.cli, name, record)
    cfg = RunConfig(
        methods=("FY", "SUBOPT", "KKA", "SPA"), sample_sizes=(20,), lambdas=(0.3, 0.0),
        replications=1, n_eval=10, seed=3,
    )
    expected = {
        ("FY", 0.3): "fy_sgd_fit",
        ("FY", 0.0): "subopt_fit",  # lam 0 is the plain suboptimality loss
        ("SUBOPT", None): "subopt_fit",
        ("KKA", None): "kka_fit",
        ("SPA", None): "spa_fit",
    }
    seen = []
    for (_, method, _, lam), (cell,) in _build_cells(cfg):
        calls.clear()
        _synth_cell(cfg, *cell)
        [(name, fit_cfg)] = calls
        assert name == expected[method, lam]
        assert fit_cfg.seed == cell[3] != 0
        if name == "fy_sgd_fit":
            assert fit_cfg.lam == lam
        seen.append((method, lam))
    assert set(seen) == expected.keys()


# ---------------------------------------------------------------------------
# formatting helpers


def test_fmt():
    assert _fmt(None) == ""
    assert _fmt(float("nan")) == ""
    assert _fmt(0.25) == "0.25"
    assert _fmt(1e-13) == "1e-13"


def test_mean_se():
    mean, se = _mean_se([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert se == pytest.approx(np.std([1, 2, 3], ddof=1) / np.sqrt(3))
    assert _mean_se([5.0]) == (5.0, 0.0)
    assert _mean_se([]) == (None, None)
    assert _mean_se([float("nan"), 4.0]) == (4.0, 0.0)


# ---------------------------------------------------------------------------
# main entry point


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_main_config_error_exits_2(tmp_path):
    bad = _cfg_file(tmp_path, "experiment: Q\n")
    assert main(["synth", "--config", str(bad)]) == 2
    # KKA on the path polytope failed every cell and exited 1
    kka = _cfg_file(tmp_path, "methods: [KKA]\n")
    assert main(["spath", "--config", str(kka), "--out", str(tmp_path / "never")]) == 2
    assert not (tmp_path / "never").exists()
    assert main(["synth", "--config", str(tmp_path / "missing.yaml")]) == 2
    # a bad seed is a config error, not a grid of failed (or relabelled) cells
    small = "sample_sizes: [5]\nreplications: 1\nn_eval: 5\n"
    out = tmp_path / "never"
    ok = _cfg_file(tmp_path, small)
    assert main(["synth", "--config", str(ok), "--seed", "-1", "--out", str(out)]) == 2
    for seed in ("1.5", "true"):
        bad = _cfg_file(tmp_path, f"seed: {seed}\n" + small)
        assert main(["synth", "--config", str(bad), "--out", str(out)]) == 2
    # values of the wrong type are config errors too, not TypeError tracebacks
    base = {"sample_sizes": "[5]", "replications": "1", "n_eval": "5"}
    for key, value in (
        ("sample_sizes", "100"), ("lambdas", "0.1"), ("lambdas", "[a]"), ("methods", "FY"),
        ("sigma", "null"), ("sigma", "'1'"), ("sp_sigma", "null"), ("out", "5"),
        ("sp_nodes", "45.5"), ("sp_nodes", "1"), ("sp_edges", "-1"), ("sp_m", "1"),
        ("methods", "[]"), ("lambdas", "[]"), ("sample_sizes", "[]"),
    ):
        text = "".join(f"{k}: {v}\n" for k, v in {**base, key: value}.items())
        bad = _cfg_file(tmp_path, text)
        # a bad out key must fail without --out overriding it
        flags = [] if key == "out" else ["--out", str(out)]
        for command in ("synth", "spath"):
            assert main([command, "--config", str(bad), *flags]) == 2, (key, value)
    # these failed every spath cell and exited 1
    for key, value in (("sp_edges", "200"), ("sp_n", "1")):
        bad = _cfg_file(tmp_path, f"{key}: {value}\n")
        assert main(["spath", "--config", str(bad), "--out", str(out)]) == 2, (key, value)
    assert not out.exists()


def test_main_synth_writes_report(tmp_path, capsys):
    cfg = _cfg_file(
        tmp_path,
        "experiment: B\nmethods: [FY]\nsample_sizes: [30]\nlambdas: [0.1]\n"
        "replications: 2\nnoise: none\nn_eval: 50\n",
    )
    out = tmp_path / "res"
    code = main(["synth", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [tuple(rows[0])] == [CSV_COLUMNS]
    assert len(rows) == 1
    row = rows[0]
    assert row["experiment"] == "B" and row["method"] == "FY"
    assert row["reps_ok"] == "2" and row["reps_failed"] == "0"
    assert row["error"] == ""
    assert float(row["decision_error_mean"]) >= 0.0
    assert row["relative_regret_ratio_mean"] == ""  # synth grids have no ratio
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["cells_total"] == 2 and summary["cells_failed"] == 0
    assert summary["config"]["experiment"] == "B"
    assert "report written" in capsys.readouterr().out


def test_main_synth_rerun_is_byte_identical(tmp_path):
    cfg = _cfg_file(
        tmp_path,
        "experiment: C\nmethods: [FY]\nsample_sizes: [25]\nlambdas: [0.1]\n"
        "replications: 2\nn_eval: 40\nseed: 5\n",
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["synth", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["synth", "--config", str(cfg), "--out", str(out2)]) == 0
    a = (out1 / "report.csv").read_text(encoding="utf-8")
    b = (out2 / "report.csv").read_text(encoding="utf-8")
    # wall time is the only column allowed to differ between reruns
    for ra, rb in zip(a.splitlines(), b.splitlines()):
        ca, cb = ra.split(","), rb.split(",")
        drop = CSV_COLUMNS.index("wall_time_mean")
        assert ca[:drop] == cb[:drop]
        assert ca[drop + 1 :] == cb[drop + 1 :]


def test_main_seed_override_changes_cells(tmp_path):
    cfg = _cfg_file(
        tmp_path,
        "experiment: C\nmethods: [FY]\nsample_sizes: [25]\nlambdas: [0.1]\n"
        "replications: 1\nn_eval: 40\n",
    )
    out1, out2 = tmp_path / "s0", tmp_path / "s9"
    assert main(["synth", "--config", str(cfg), "--out", str(out1), "--seed", "0"]) == 0
    assert main(["synth", "--config", str(cfg), "--out", str(out2), "--seed", "9"]) == 0
    ra = next(iter(csv.DictReader(open(out1 / "report.csv", encoding="utf-8"))))
    rb = next(iter(csv.DictReader(open(out2 / "report.csv", encoding="utf-8"))))
    assert ra["parameter_error_mean"] != rb["parameter_error_mean"]


def test_main_cell_failure_sets_exit_code(tmp_path, capsys, monkeypatch):
    # a pipeline that raises in every replication (a bad sp_edges used to
    # do this, and is now a config error)
    def fail(*args):
        raise ValueError("pipeline failed")

    monkeypatch.setattr(fyinv.cli, "sp_run", fail)
    cfg = _cfg_file(
        tmp_path,
        "experiment: spath\nmethods: [FY]\nreplications: 2\nsp_n: 20\n"
        "sp_nodes: 12\nsp_edges: 20\nsp_m: 3\n",
    )
    out = tmp_path / "res"
    code = main(["spath", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        row = next(iter(csv.DictReader(fh)))
    assert row["reps_failed"] == "2"
    assert "ValueError" in row["error"]
    assert "FAILED" in capsys.readouterr().out


def test_main_spath_small_grid(tmp_path):
    cfg = _cfg_file(
        tmp_path,
        "experiment: spath\nmethods: [SUBOPT]\nreplications: 1\nsp_n: 40\n"
        "sp_nodes: 12\nsp_edges: 20\nsp_m: 3\nsp_sigma: 0.1\n",
    )
    out = tmp_path / "res"
    assert main(["spath", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        row = next(iter(csv.DictReader(fh)))
    assert row["experiment"] == "spath"
    assert float(row["relative_regret_ratio_mean"]) >= 0.0
    assert float(row["parameter_error_mean"]) > 0.0


def _report_rows(out):
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_synth_with_spath_experiment_runs_the_spath_grid(tmp_path):
    # the config's experiment alone picks the pipeline, whatever the subcommand
    cfg = _cfg_file(
        tmp_path,
        "experiment: spath\nmethods: [FY, SUBOPT]\nsample_sizes: [30, 40]\n"
        "lambdas: [0.1, 5.0]\nreplications: 1\nsp_n: 24\n"
        "sp_nodes: 12\nsp_edges: 20\nsp_m: 3\n",
    )
    by_cmd = {}
    for command in ("synth", "spath"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        rows = _report_rows(out)
        assert [(r["experiment"], r["method"], r["n"], r["lam"]) for r in rows] == [
            ("spath", "FY", "24", ""),
            ("spath", "SUBOPT", "24", ""),
        ]
        by_cmd[command] = [{k: v for k, v in r.items() if k != "wall_time_mean"} for r in rows]
    assert by_cmd["synth"] == by_cmd["spath"]


def test_spath_subcommand_records_spath_experiment(tmp_path):
    cfg = _cfg_file(
        tmp_path,
        "methods: [SUBOPT]\nreplications: 1\nsp_n: 24\nsp_nodes: 12\nsp_edges: 20\nsp_m: 3\n",
    )
    out = tmp_path / "res"
    assert main(["spath", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["experiment"] == "spath"
    assert [r["experiment"] for r in summary["rows"]] == ["spath"]


def test_parallel_pool_matches_in_process(tmp_path):
    cfg = _cfg_file(
        tmp_path,
        "experiment: C\nmethods: [FY, SUBOPT]\nsample_sizes: [20]\nlambdas: [0.1, 1.0]\n"
        "replications: 2\nn_eval: 30\nseed: 4\n",
    )
    reports = []
    for parallel in ("1", "2"):
        out = tmp_path / f"p{parallel}"
        assert main(["synth", "--config", str(cfg), "--out", str(out), "--parallel", parallel]) == 0
        reports.append(_report_rows(out))
    a, b = reports
    assert len(a) == 3
    for ra, rb in zip(a, b):
        ra.pop("wall_time_mean")
        rb.pop("wall_time_mean")
        assert ra == rb


def test_grad_check_function_small():
    worst, ok = grad_check("C", trials=6, seed=0)
    assert ok
    assert worst <= 1e-5
    with pytest.raises(ValueError):
        grad_check("C", trials=0)


def test_main_grad_check_exit_zero(capsys):
    assert main(["grad-check", "--example", "B", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert main(["grad-check", "--trials", "0"]) == 2


def test_main_diagnostics_reject_bad_arguments_with_exit_2(capsys):
    for argv in (
        ["grad-check", "--seed", "-1", "--trials", "1"],
        ["calib-check", "--seed", "-1", "--samples", "1"],
        ["calib-check", "--samples", "0"],
        ["calib-check", "--lam", "-1"],
        ["calib-check", "--lam", "nan"],
        ["calib-check", "--lam", "inf"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, argv


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["mystery"])
