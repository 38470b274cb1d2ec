"""The benchmark's workloads: inputs from a seed, one replication, output checks.

Every workload runs as a closed loop with one client in one process: the
next replication starts when the previous one has returned.  Replication i
of a run with seed s uses ``rep_seed(s, i)``; fyinv receives only the inputs
generated from that seed.

Why these three workloads (see also README.md in this directory):

* grid-fy: FY on the 45-node planted grid.  Nearly all of it is the
  Frank-Wolfe projection (``_fw_project_batch``) with its ``_correct_rows``
  step and the oracle at batch 96 (training) and 1200 (risk evaluation).
* grid-subopt: the same instance fitted by the hinged subgradient baseline:
  ~12k oracle calls at batch 16 and no Frank-Wolfe, so it isolates the
  oracle's per-call overhead and predicts no change for any Frank-Wolfe
  change.  Its quality metrics stay flat by construction (the fit keeps its
  zero-risk start theta0 = 0); there they guard only against failures.
* synth-sweep: the ``fyinv synth`` CLI on family A with all four methods.
  No graph or Frank-Wolfe code runs; it covers the training driver, the
  closed-form projection, KKA, kernel denoising and report writing.

The grid keeps one planted parameter (drawn at seed 0) for every run, like a
fixed road network whose trips are resampled: replications vary the trips,
noise and split.  Redrawing the parameter per replication moved regret by
+-40% between seeds, which no run length here could average out.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import fyinv.cli
import fyinv.spath
import fyinv.synth
from fyinv.model import FlowPolytope, NoisyDecision, region_contains

GRID_NODES, GRID_EDGES, GRID_M, GRID_N, GRID_SIGMA = 45, 93, 12, 2000, 0.1
SWEEP_FAMILY, SWEEP_N, SWEEP_SIGMA = "A", 1000, 1.0
SWEEP_METHODS = ("FY", "SUBOPT", "KKA", "SPA")
# Same stride the CLI uses to derive cell seeds; rep_seed(s, 0) == s keeps
# seed 0 comparable with single-replication measurements at seed 0.
_SEED_STRIDE = 1_000_003


def rep_seed(seed: int, i: int) -> int:
    return seed + _SEED_STRIDE * i


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class _Capture:
    """Keeps what a fyinv function returned, installed in one namespace.

    The wrapper sets ``__wrapped__`` so the tracer finds and wraps it too.
    """

    def __init__(self, module, attr: str):
        self.results: list = []
        inner = getattr(module, attr)

        def capture(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.results.append(out)
            return out

        capture.__wrapped__ = inner
        setattr(module, attr, capture)


def _fit_problems(fits, expected: int) -> list[str]:
    if len(fits) != expected:
        return [f"expected {expected} fits, captured {len(fits)}"]
    out = []
    for fit in fits:
        if not np.all(np.isfinite(fit.theta.values)):
            out.append("fitted theta is not finite")
        if not _finite(fit.meta.get("risk", float("nan"))):
            out.append(f"fit risk is not finite: {fit.meta.get('risk')}")
    return out


class GridWorkload:
    """One ``spath.sp_run`` replication on the planted 45-node grid."""

    def __init__(self, name: str, method: str, expects_fw: bool, anchor: dict):
        self.name = name
        self.method = method
        self.expects_fw = expects_fw
        self.expects_oracle = True
        self.anchor = anchor
        graph = fyinv.spath.grid_graph(GRID_NODES, GRID_EDGES)
        self.theta_star = fyinv.spath.planted_theta(graph, GRID_M, seed=0)
        self._fits = _Capture(fyinv.spath, "sp_fit")
        self._decisions = _Capture(fyinv.spath, "_solve_exact_batch")

    def setup(self, seed: int):
        """Graph build, topological order and the observed paths."""
        return fyinv.spath.synth_graph_instance(
            GRID_NODES, GRID_EDGES, GRID_M, self.theta_star, GRID_N, GRID_SIGMA, seed
        )

    def run(self, sp, seed: int):
        self._fits.results.clear()
        self._decisions.results.clear()
        return fyinv.spath.sp_run(sp, self.method, None, seed)

    def check(self, sp, seed: int, report) -> tuple[dict, list[str]]:
        quality = {
            "parameter_error": report.parameter_error,
            "decision_error": report.decision_error,
            "regret": report.regret,
            "rel_regret_pct": report.relative_regret_ratio,
        }
        problems = _fit_problems(self._fits.results, 1)
        if not _finite(*quality.values()):
            problems.append(f"non-finite quality metric: {quality}")
        if len(self._decisions.results) != 1:
            return quality, problems + ["predicted decisions were not captured"]
        xs = self._decisions.results[0]
        region = FlowPolytope(sp.graph)
        binary = np.all((xs == 0.0) | (xs == 1.0), axis=1)
        bad = [i for i in range(len(xs)) if not (binary[i] and region_contains(region, xs[i]))]
        if bad:
            problems.append(f"{len(bad)} of {len(xs)} predictions are not 0/1 source-sink paths")
        _, te = fyinv.spath.train_test_split(len(sp), seed)
        dec_err = float(np.mean(np.sum((xs - sp.observations[te]) ** 2, axis=1)))
        if not math.isclose(dec_err, report.decision_error, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"decision_error {report.decision_error} disagrees with predictions ({dec_err})")
        return quality, problems


class SweepWorkload:
    """One in-process ``fyinv synth`` run: family A, four methods, one rep."""

    name = "synth-sweep"
    expects_fw = False
    expects_oracle = False
    anchor: dict = {}

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.config = workdir / "sweep.yaml"
        self.config.write_text(
            f"experiment: {SWEEP_FAMILY}\n"
            f"methods: [{', '.join(SWEEP_METHODS)}]\n"
            f"sample_sizes: [{SWEEP_N}]\n"
            "noise: noisy_decision\n"
            f"sigma: {SWEEP_SIGMA}\n"
            "replications: 1\n",
            encoding="utf-8",
        )
        self._fits = [_Capture(fyinv.cli, fn) for fn in ("fy_sgd_fit", "subopt_fit", "kka_fit", "spa_fit")]

    def setup(self, seed: int):
        """Family-A data generation, the step each CLI cell starts with.

        The CLI derives its own cell seeds and regenerates the data, so the
        dataset made here only times that step.
        """
        return fyinv.synth.generate(SWEEP_FAMILY, SWEEP_N, NoisyDecision(SWEEP_SIGMA), seed * _SEED_STRIDE)

    def run(self, _inputs, seed: int):
        for cap in self._fits:
            cap.results.clear()
        out = self.workdir / "out"
        argv = ["synth", "--config", str(self.config), "--out", str(out),
                "--seed", str(seed), "--reps", "1", "--parallel", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            return fyinv.cli.main(argv)

    def check(self, _inputs, seed: int, code) -> tuple[dict, list[str]]:
        problems = [] if code == 0 else [f"fyinv synth exited with {code}"]
        summary = json.loads((self.workdir / "out" / "summary.json").read_text(encoding="utf-8"))
        rows = summary["rows"]
        if summary["cells_failed"] != 0 or any(r["reps_failed"] != "0" for r in rows):
            problems.append(f"failed cells: {[r['error'] for r in rows if r['error']]}")
        if summary["config"]["seed"] != seed or len(rows) != len(SWEEP_METHODS):
            problems.append("summary does not describe this replication")
        problems += _fit_problems([f for cap in self._fits for f in cap.results], len(SWEEP_METHODS))
        quality = {}
        for metric in ("parameter_error", "decision_error", "regret"):
            vals = [float(r[f"{metric}_mean"] or "nan") for r in rows]
            quality[metric] = float(np.mean(vals))
        if not _finite(*quality.values()):
            problems.append(f"non-finite quality metric: {quality}")
        return quality, problems


def make(name: str, workdir: Path):
    """Build a workload by name; None if the name is unknown."""
    if name == "grid-fy":
        return GridWorkload(name, "FY", True, {
            "solvers._correct_rows.calls": 466,
            "solvers._correct_rows.rows": 29179,
        })
    if name == "grid-subopt":
        return GridWorkload(name, "SUBOPT", False, {
            "graphs.shortest_path_batch.solver_calls": 12014,
            "graphs.shortest_path_batch.solver_rows": 208400,
        })
    if name == "synth-sweep":
        return SweepWorkload(workdir)
    return None


WORKLOADS = ("grid-fy", "grid-subopt", "synth-sweep")
