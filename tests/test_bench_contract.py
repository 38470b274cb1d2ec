"""Names and parameter lists that the benchmark harness under bench/ patches.

The harness wraps internal functions in every fyinv namespace that holds
them, and captures fitter results where the CLI and the shortest-path
pipeline look the fitters up.  A rename or a changed parameter list does
not fail there: the trace only reports the layer as 0.  These tests fail
instead.
"""

import functools
import inspect

import fyinv.cli
import fyinv.graphs
import fyinv.losses
import fyinv.solvers
import fyinv.spath
import fyinv.train


def _params(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_wrapped_internals_keep_their_names_and_parameters():
    assert _params(fyinv.train._nw_weights) == ["train_ctxs", "eval_ctxs", "bandwidth"]
    assert _params(fyinv.train._run_sgd) == ["fp", "ds", "cfg", "batch_step", "full_risk"]
    # the tracer reads the batch's row count from the third argument
    assert _params(fyinv.losses._fy_batch)[:4] == ["fp", "theta", "ctxs", "ys"]
    assert _params(fyinv.losses._subopt_batch) == ["fp", "theta", "ctxs", "ys", "hinge"]
    # the tracer reads each span's row count from these arguments
    for name in ("fy_sgd_fit", "subopt_fit", "kka_fit", "spa_fit"):
        assert _params(getattr(fyinv.train, name))[1] == "ds"
    for fn in (fyinv.train.nw_denoise, fyinv.train._cv_bandwidth):
        assert _params(fn)[0] == "ds"
    assert _params(fyinv.graphs.shortest_path_batch)[1] == "costs"
    assert _params(fyinv.solvers._fw_project_batch)[1] == "targets"
    assert "rows" in _params(fyinv.solvers._correct_rows)
    for name in ("_project_box_batch", "_project_ball_batch", "_project_nonneg_l1cap_batch"):
        assert _params(getattr(fyinv.solvers, name))[0] == "vs"
    assert _params(fyinv.solvers._linear_argmax_batch)[1] == "hcs"
    # the solvers.closed_form and _fw_project_batch spans see these calls
    # only while the one batch projection looks them up in solvers' globals
    closed = ("_project_box_batch", "_project_ball_batch", "_project_nonneg_l1cap_batch")
    for name in (*closed, "_fw_project_batch"):
        assert name in fyinv.solvers._project_region_batch.__code__.co_names
    # the graphs.topo_order layer re-wraps this cached_property's function
    assert isinstance(vars(fyinv.graphs.Graph)["_topo_edge_order"], functools.cached_property)


def test_captured_callees_are_module_globals_of_their_callers():
    for name in ("fy_sgd_fit", "subopt_fit", "kka_fit", "spa_fit"):
        assert getattr(fyinv.cli, name) is getattr(fyinv.train, name)
        assert name in fyinv.cli._synth_cell.__code__.co_names
    assert fyinv.spath._solve_exact_batch is fyinv.solvers._solve_exact_batch
    for name in ("sp_fit", "_solve_exact_batch"):
        assert callable(getattr(fyinv.spath, name))
        assert name in fyinv.spath.sp_run.__code__.co_names
    # the train.driver span wraps _run_sgd where train's row-mean fitters
    # look it up: in the module globals of _fit_rows
    assert "_run_sgd" in fyinv.train._fit_rows.__code__.co_names
