"""Experiment driver.

Four subcommands:

  synth       benchmark-family grid (method x sample size x replication)
  spath       shortest-path pipeline on a synthetic planted-parameter grid
  grad-check  Fenchel-Young gradient vs central finite differences
  calib-check calibration-inequality and ball-exactness suites

Runs are described by a YAML config (all keys optional, see RunConfig);
``--seed``, ``--reps``, ``--out`` and ``--parallel`` override it.  The
config's ``experiment`` alone picks the pipeline: ``spath`` (which the
``spath`` subcommand sets) runs the shortest-path pipeline at n = sp_n with
no lambda expansion, whatever the subcommand; A-E run a benchmark family.
Every (method, n, lambda) cell is replicated with a seed derived from the
cell's position, so a rerun with the same config and seed writes
byte-identical metric columns.  A failing replication is recorded in its
row's error column and the exit code, never aborting sibling cells.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .metrics import MetricsReport, _exact_batch, calibration_check, decision_error, parameter_error, regret
from .model import (
    Dataset, FlowPolytope, Noiseless, NoisyDecision, NoisyObjective, _is_count, cost, rng_stream
)
from .losses import _KKT_FORMS, fy_grad, fy_loss
from .solvers import solve_exact, solve_regularized
from .spath import _flow_problem, sp_run, synth_graph_instance, train_test_split
from .synth import EXAMPLE_KINDS, build_example, generate
from .train import METHODS, SgdConfig, fy_sgd_fit, kka_fit, spa_fit, subopt_fit

NOISE_KINDS = ("none", "noisy_decision", "noisy_objective")

METRICS = ("parameter_error", "decision_error", "regret", "relative_regret_ratio")

CSV_COLUMNS = (
    "experiment", "method", "n", "lam", "reps_ok", "reps_failed",
    *(f"{metric}_{stat}" for metric in METRICS for stat in ("mean", "se")),
    "wall_time_mean", "error",
)


def _is_nonneg_real(v) -> bool:
    """True for a finite real number (not a bool) that is at least 0."""
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    return real and 0 <= v < np.inf


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of one experiment grid."""

    experiment: str = "C"
    methods: tuple = ("FY",)
    noise: str = "noisy_decision"
    sigma: float = 1.0
    sample_sizes: tuple = (50, 100, 300, 500, 1000)
    replications: int = 20
    lambdas: tuple = (0.1,)
    seed: int = 0
    out: str = "results"
    n_eval: int = 1000
    # shortest-path pipeline only
    sp_n: int = 2000
    sp_nodes: int = 45
    sp_edges: int = 93
    sp_m: int = 12
    sp_sigma: float = 0.1

    def __post_init__(self):
        # a bare string would be split into characters, a bare number not
        # iterate, and an empty list would run no cell yet exit 0
        for key in ("methods", "sample_sizes", "lambdas"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} must be a list or tuple")
            if not value:
                raise ValueError(f"{key} must not be empty")
            object.__setattr__(self, key, tuple(value))
        if self.experiment != "spath" and self.experiment not in EXAMPLE_KINDS:
            raise ValueError(f"experiment must be one of {EXAMPLE_KINDS} or 'spath'")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        # KKA would fail every cell of a region that has no KKT form
        spath = self.experiment == "spath"
        region = FlowPolytope if spath else type(build_example(self.experiment)[0].region)
        if "KKA" in self.methods and region not in _KKT_FORMS:
            raise ValueError(f"KKA has no KKT form on {self.experiment}'s {region.__name__} region")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}")
        counts = (
            ("replications", 1), ("n_eval", 1), ("sp_n", 1), ("sp_nodes", 2), ("sp_edges", 1),
            ("sp_m", 2), ("seed", 0),
        )
        for name, least in counts:
            if not _is_count(getattr(self, name), least):
                raise ValueError(f"{name} must be an integer >= {least}")
        if not all(_is_count(n) for n in self.sample_sizes):
            raise ValueError("sample sizes must be integers >= 1")
        if not all(_is_nonneg_real(l) for l in self.lambdas):
            raise ValueError("lambdas must be finite numbers >= 0")
        if not (_is_nonneg_real(self.sigma) and _is_nonneg_real(self.sp_sigma)):
            raise ValueError("sigma and sp_sigma must be finite numbers >= 0")
        if not isinstance(self.out, str):
            raise ValueError("out must be a string")
        if spath:  # a one-row instance and the split's sides, as each cell checks them
            synth_graph_instance(self.sp_nodes, self.sp_edges, self.sp_m, None, 1, self.sp_sigma, 0)
            train_test_split(self.sp_n, 0)


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ValueError("config must be a mapping")
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - fields
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**raw)


def _noise_model(noise: str, sigma: float):
    if noise == "none":
        return Noiseless()
    if noise == "noisy_decision":
        return NoisyDecision(sigma)
    return NoisyObjective(sigma)


# baseline budgets: the subgradient objectives need longer decayed-step
# schedules than the smooth FY risk to reach a comparable plateau.  KKA runs
# full-batch descent on its convex dual-reduced objective and stops on the
# gradient tolerance, in about 30 steps on family A; max_iters only caps it.
# Its step is 1/L: the reduced objective's gradient is L-Lipschitz with
# L = 2 lambda_max(mean J^T J) <= 2 on families A-D (see kka_fit).
_SYNTH_CFG = {
    "FY": SgdConfig(learning_rate=0.1, batch_size=32, max_iters=2000, lam=0.1, eval_every=200),
    "SUBOPT": SgdConfig(
        learning_rate=0.1, batch_size=32, max_iters=4000, step_decay="inv_sqrt", eval_every=400
    ),
    "KKA": SgdConfig(learning_rate=0.5, max_iters=4000),
    "SPA": SgdConfig(learning_rate=0.05, batch_size=32, max_iters=10_000, eval_every=50),
}


def _synth_cell(cfg: RunConfig, method: str, n: int, lam, seed: int) -> MetricsReport:
    fp, theta_star, law = build_example(cfg.experiment)
    ds = generate(cfg.experiment, n, _noise_model(cfg.noise, cfg.sigma), seed)

    t0 = time.perf_counter()
    if method == "FY" and lam <= 0:
        # lam = 0 turns the FY objective into the plain suboptimality loss
        method = "SUBOPT"
    fit_cfg = dataclasses.replace(_SYNTH_CFG[method], seed=seed)
    if method == "FY":
        fit_cfg = dataclasses.replace(fit_cfg, lam=float(lam))
    fitters = {"FY": fy_sgd_fit, "SUBOPT": subopt_fit, "KKA": kka_fit, "SPA": spa_fit}
    fit = fitters[method](fp, ds, fit_cfg)
    wall = time.perf_counter() - t0

    eval_ctxs = law.sample(rng_stream(seed, 99), cfg.n_eval)
    return MetricsReport(
        parameter_error=parameter_error(fit.theta, theta_star),
        decision_error=decision_error(fp, fit.theta, theta_star, eval_ctxs),
        regret=regret(fp, fit.theta, theta_star, eval_ctxs),
        relative_regret_ratio=None,
        n_test=cfg.n_eval,
        wall_time=wall,
    )


def _spath_cell(cfg: RunConfig, method: str, n: int, lam, seed: int) -> MetricsReport:
    sp = synth_graph_instance(cfg.sp_nodes, cfg.sp_edges, cfg.sp_m, None, n, cfg.sp_sigma, seed)
    return sp_run(sp, method, None, seed)


def _run_cell(cfg: RunConfig, cell: tuple) -> dict:
    """Run one (method, n, lam, seed) replication of the grid ``cfg`` describes."""
    try:
        fn = _spath_cell if cfg.experiment == "spath" else _synth_cell
        return {"ok": True, **dataclasses.asdict(fn(cfg, *cell))}
    except Exception as exc:  # recorded per cell, siblings keep running
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _build_cells(cfg: RunConfig):
    """Expand the grid to (group_key, [(method, n, lam, seed)]) in a stable order.

    The shortest-path pipeline runs at n = sp_n with its own FY config, so
    it ignores sample_sizes and lambdas.
    """
    spath = cfg.experiment == "spath"
    sizes = (cfg.sp_n,) if spath else cfg.sample_sizes
    groups = []
    for method in cfg.methods:
        lams = cfg.lambdas if (method == "FY" and not spath) else (None,)
        for n in sizes:
            for lam in lams:
                base = cfg.seed * 1_000_003 + len(groups) * cfg.replications
                cells = [(method, int(n), lam, base + r) for r in range(cfg.replications)]
                groups.append(((cfg.experiment, method, int(n), lam), cells))
    return groups


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if np.isnan(x):
        return ""
    return f"{x:.12g}"


def _mean_se(vals):
    vals = [v for v in vals if v is not None and not np.isnan(v)]
    if not vals:
        return None, None
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return mean, se


def _aggregate(key, results):
    experiment, method, n, lam = key
    ok = [r for r in results if r["ok"]]
    bad = [r for r in results if not r["ok"]]
    row = {
        "experiment": experiment,
        "method": method,
        "n": str(n),
        "lam": _fmt(lam),
        "reps_ok": str(len(ok)),
        "reps_failed": str(len(bad)),
        "error": bad[0]["error"] if bad else "",
    }
    for metric in METRICS:
        mean, se = _mean_se([r[metric] for r in ok])
        row[f"{metric}_mean"] = _fmt(mean)
        row[f"{metric}_se"] = _fmt(se)
    mean, _ = _mean_se([r["wall_time"] for r in ok])
    row["wall_time_mean"] = _fmt(mean)
    return row


def _execute(cfg: RunConfig, parallel: int, out_dir: Path) -> int:
    t0 = time.perf_counter()
    groups = _build_cells(cfg)
    cells = [c for _, group in groups for c in group]
    run = functools.partial(_run_cell, cfg)
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            flat = list(pool.map(run, cells))
    else:
        flat = [run(c) for c in cells]

    reps = cfg.replications  # every group holds one cell per replication
    rows = [_aggregate(key, flat[i * reps : (i + 1) * reps]) for i, (key, _) in enumerate(groups)]
    failed = sum(1 for r in flat if not r["ok"])

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    summary = {
        "config": dataclasses.asdict(cfg),
        "rows": rows,
        "cells_total": len(cells),
        "cells_failed": failed,
        "wall_time_seconds": round(time.perf_counter() - t0, 3),
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for row in rows:
        tag = f"{row['experiment']}/{row['method']}/n={row['n']}" + (
            f"/lam={row['lam']}" if row["lam"] else ""
        )
        if row["error"]:
            print(f"{tag}: FAILED {row['reps_failed']} of {cfg.replications} reps: {row['error']}")
        else:
            print(
                f"{tag}: param_err={row['parameter_error_mean'] or 'n/a'}"
                f" dec_err={row['decision_error_mean']}"
                f" regret={row['regret_mean']}"
                + (
                    f" rel_regret%={row['relative_regret_ratio_mean']}"
                    if row["relative_regret_ratio_mean"]
                    else ""
                )
            )
    print(f"report written to {out_dir / 'report.csv'}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# grad-check


def _grad_flow_problem():
    sp = synth_graph_instance(num_nodes=6, num_edges=8, m=3, n=1, sigma=0.0, seed=0)
    return _flow_problem(sp), sp.theta_star


_FD_STEP = 1e-6


def grad_check(kind: str, trials: int, seed: int = 0):
    """Compare fy_grad against a central finite difference along random directions.

    Returns (max relative error, pass flag).  Accepts example kinds A-E
    plus "SP" for a small flow-polytope instance.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gap_tol = 1e-10  # Frank-Wolfe's tolerance on the SP instance
    if kind == "SP":
        fp, theta_star = _grad_flow_problem()
        law = None
    else:
        fp, theta_star, law = build_example(kind)
    p = fp.cost_map.p
    worst = 0.0
    for t in range(trials):
        rng = rng_stream(seed, 17, t)
        theta = theta_star.values + 0.5 * rng.standard_normal(p)
        if law is None:
            u = np.concatenate([rng.uniform(0, 1, fp.cost_map.m - 1), [1.0]])
        else:
            u = law.sample(rng, 1)[0]
        witness = theta_star.values + rng.standard_normal(p)
        y = solve_exact(fp, witness, u)
        lam = 0.1 if t % 2 == 0 else 1.0
        g = fy_grad(fp, theta, u, y, lam, gap_tol=gap_tol)
        v = rng.standard_normal(p)
        v /= np.linalg.norm(v)
        up = fy_loss(fp, theta + _FD_STEP * v, u, y, lam, gap_tol=gap_tol)
        dn = fy_loss(fp, theta - _FD_STEP * v, u, y, lam, gap_tol=gap_tol)
        fd = (up - dn) / (2 * _FD_STEP)
        rel = abs(float(v @ g) - fd) / max(1.0, abs(fd))
        worst = max(worst, rel)
    return worst, worst <= 1e-5


# ---------------------------------------------------------------------------
# calib-check


def _ball_exactness(samples: int, seed: int):
    """Closed-form regularized-vs-exact distance law on the ball region."""
    fp, theta_star, law = build_example("E")
    a = fp.region.radius
    worst = 0.0
    for t in range(samples):
        rng = rng_stream(seed, 23, t)
        theta = theta_star.values + rng.standard_normal(fp.cost_map.p)
        u = law.sample(rng, 1)[0]
        lam = float(10.0 ** rng.uniform(-3, 1))
        h = np.linalg.norm(cost(fp.cost_map, theta, u))
        if h < 1e-12:
            continue
        x_reg = solve_regularized(fp, theta, u, lam)
        x_star = solve_exact(fp, theta, u)
        dist = float(np.linalg.norm(x_reg - x_star))
        if lam <= h / a:
            worst = max(worst, dist)
        else:
            worst = max(worst, dist - (lam * a**2 / (2 * h) + 1e-12))
    return worst, worst <= 1e-12


def calib_suite(lam: float, samples: int, seed: int):
    """Calibration-bound hold rate on example C (200 contexts) plus ball
    exactness on E."""
    fp, theta_star, law = build_example("C")
    ctxs = law.sample(rng_stream(seed, 31), 200)
    surrogate = _exact_batch(fp, theta_star.values, ctxs)
    fit = fy_sgd_fit(
        fp,
        Dataset(ctxs, surrogate),
        SgdConfig(learning_rate=0.1, batch_size=32, max_iters=2000, lam=lam, seed=seed),
    )
    held = 0
    for t in range(samples):
        rng = rng_stream(seed, 37, t)
        theta = theta_star.values + 0.3 * rng.standard_normal(fp.cost_map.p)
        rep = calibration_check(fp, theta, theta_star, lam, ctxs, candidates=[fit.theta])
        held += int(rep.holds)
    frac = held / samples
    ball_worst, ball_ok = _ball_exactness(1000, seed)
    return frac, ball_worst, frac >= 0.95 and ball_ok


# ---------------------------------------------------------------------------
# argument parsing


def _common(sub):
    sub.add_argument("--config", type=Path, default=None, help="YAML run config")
    sub.add_argument("--out", type=Path, default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--reps", type=int, default=None, help="override replications")
    sub.add_argument("--parallel", type=int, default=1, help="worker processes")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fyinv", description=__doc__.splitlines()[0])
    subs = ap.add_subparsers(dest="command", required=True)
    _common(subs.add_parser("synth", help="benchmark-family experiment grid"))
    _common(subs.add_parser("spath", help="synthetic shortest-path pipeline"))

    g = subs.add_parser("grad-check", help="gradient vs finite differences")
    g.add_argument("--example", default="C", choices=list(EXAMPLE_KINDS) + ["SP"])
    g.add_argument("--trials", type=int, default=100)
    g.add_argument("--seed", type=int, default=0)

    c = subs.add_parser("calib-check", help="calibration and ball-exactness suites")
    c.add_argument("--lam", type=float, default=0.1)
    c.add_argument("--samples", type=int, default=100)
    c.add_argument("--seed", type=int, default=0)
    return ap


def _check_args(args) -> str | None:
    """Why the grad-check or calib-check arguments are invalid, or None."""
    counts = {"grad-check": ("trials", 1), "calib-check": ("samples", 1)}[args.command]
    for name, least in (counts, ("seed", 0)):
        if not _is_count(getattr(args, name), least):
            return f"{name} must be an integer >= {least}"
    if args.command == "calib-check" and not (np.isfinite(args.lam) and args.lam > 0):
        return "lam must be finite and > 0"
    return None


def _resolve_config(args) -> tuple[RunConfig, Path]:
    cfg = load_config(args.config) if args.config else RunConfig()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.reps is not None:
        updates["replications"] = args.reps
    if args.command == "spath":
        updates["experiment"] = "spath"
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    out_dir = args.out if args.out is not None else Path(cfg.out)
    return cfg, out_dir


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("synth", "spath"):
        try:
            cfg, out_dir = _resolve_config(args)
        except (ValueError, OSError, yaml.YAMLError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return _execute(cfg, max(1, args.parallel), out_dir)
    problem = _check_args(args)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    if args.command == "grad-check":
        worst, ok = grad_check(args.example, args.trials, args.seed)
        print(
            f"grad-check {args.example}: max relative error {worst:.3e} "
            f"over {args.trials} trials: {'PASS' if ok else 'FAIL'}"
        )
        return 0 if ok else 1
    frac, ball_worst, ok = calib_suite(args.lam, args.samples, args.seed)
    print(f"calibration bound held on {100 * frac:.1f}% of {args.samples} samples")
    print(f"ball exactness worst violation {ball_worst:.3e}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
