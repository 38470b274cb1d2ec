"""Shortest-path pipeline: grid generator, CSV ingestion, fit and run."""

import dataclasses

import numpy as np
import pytest

from fyinv import (
    MetricsReport,
    ParseError,
    Parameter,
    SgdConfig,
    SpDataset,
    UnreachableError,
    UnsupportedRegionError,
    grid_graph,
    load_graph,
    load_records,
    planted_theta,
    rng_stream,
    shortest_path,
    sp_fit,
    sp_run,
    synth_graph_instance,
    train_test_split,
)
from fyinv import spath
from fyinv.graphs import shortest_path_batch
from fyinv.train import METHODS


# ---------------------------------------------------------------------------
# grid generator


def test_grid_graph_default_shape():
    g = grid_graph()
    assert g.num_nodes == 45
    assert g.num_edges == 93
    assert g.source == 0 and g.sink == 44
    # 5x9 grid: 40 rightward + 36 downward + 17 diagonals
    right = np.sum(g.heads == g.tails + 1)
    down = np.sum(g.heads == g.tails + 9)
    diag = np.sum(g.heads == g.tails + 10)
    assert (right, down, diag) == (40, 36, 17)


def test_grid_graph_is_acyclic_and_connected():
    g = grid_graph()
    x = shortest_path(g, np.ones(93))  # would raise on cycles/unreachable
    assert x.sum() >= 1
    # every edge goes strictly "forward" in row-major order
    assert np.all(g.heads > g.tails)


def test_grid_graph_edge_count_bounds():
    with pytest.raises(ValueError):
        grid_graph(45, 75)  # below the 76 base edges
    with pytest.raises(ValueError):
        grid_graph(45, 109)  # above base + 32 diagonals
    with pytest.raises(ValueError):
        grid_graph(1, 0)
    # a float count used to fail inside numpy (nodes) or pass (edges)
    for nodes, edges in ((45.0, 93), (45, 93.0), (True, 1), (45, -1)):
        with pytest.raises(ValueError):
            grid_graph(nodes, edges)
    assert grid_graph(45, 76).num_edges == 76
    assert grid_graph(45, 108).num_edges == 108


def test_grid_graph_edge_order():
    # right edges, then down edges, then row-major diagonals: the oracle's
    # tie-breaks follow this order
    g = grid_graph(6, 9)  # 2 x 3 grid, 4 + 3 + 2 edges
    assert g.tails.tolist() == [0, 1, 3, 4, 0, 1, 2, 0, 1]
    assert g.heads.tolist() == [1, 2, 4, 5, 3, 4, 5, 4, 5]


def test_grid_graph_prime_node_count_degenerates_to_line():
    g = grid_graph(7, 6)
    assert g.num_nodes == 7 and g.num_edges == 6
    np.testing.assert_array_equal(g.tails, np.arange(6))
    np.testing.assert_array_equal(g.heads, np.arange(1, 7))


def test_planted_theta_keeps_predicted_times_positive():
    g = grid_graph(20, 35)
    theta = planted_theta(g, m=6, seed=1)
    assert theta.shape == (35, 6)
    rng = rng_stream(2)
    feats = rng.uniform(0, 1, (500, 5))
    ctxs = np.column_stack([feats, np.ones(500)])
    assert (ctxs @ theta.T).min() >= 1.0 - 1e-12
    np.testing.assert_array_equal(theta, planted_theta(g, m=6, seed=1))
    # m = 1 used to return an intercept-only parameter, m = 2.5 a numpy TypeError
    for bad in (1, 0, 2.5, True):
        with pytest.raises(ValueError):
            planted_theta(g, m=bad)


# ---------------------------------------------------------------------------
# records and datasets


def test_sp_dataset_array_validation():
    g = grid_graph(3, 2)  # a 2-edge line
    u = np.array([[0.5, 1.0]])
    t = np.array([[1.0, 2.0]])
    ys = np.ones((1, 2))
    with pytest.raises(ValueError):
        SpDataset(g, np.array([[0.5, 0.9]]), t, ys)  # intercept not 1
    with pytest.raises(ValueError):
        SpDataset(g, u, np.array([[1.0, 0.0]]), ys)  # zero time
    # these used to construct; with an infinite time sp_run scored a NaN regret
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="contexts must be finite"):
            SpDataset(g, np.array([[bad, 1.0]]), t, ys)
    with pytest.raises(ValueError, match="finite and strictly positive"):
        SpDataset(g, u, np.array([[1.0, np.inf]]), ys)
    with pytest.raises(ValueError):
        SpDataset(g, u[0], t[0], ys[0])
    sp = SpDataset(g, u, t, ys)
    with pytest.raises(ValueError):
        sp.times[0, 0] = 9.0


def test_sp_dataset_validation_and_views():
    sp = synth_graph_instance(num_nodes=12, num_edges=20, m=3, n=8, sigma=0.1, seed=0)
    assert len(sp) == 8
    assert sp.m == 3
    assert sp.contexts.shape == (8, 3)
    assert sp.times.shape == (8, 20)
    with pytest.raises(ValueError):
        SpDataset(sp.graph, sp.contexts, sp.times, sp.observations[:, :-1])
    # a truth of the wrong size used to construct, and sp_run fitted before
    # parameter_error raised
    for size in (5, 20 * 2, 20 * 3 + 1):
        with pytest.raises(ValueError, match="parameter"):
            SpDataset(sp.graph, sp.contexts, sp.times, sp.observations, Parameter(np.ones(size)))
    sub = sp.subset([1, 3])
    assert len(sub) == 2
    np.testing.assert_array_equal(sub.contexts, sp.contexts[[1, 3]])
    np.testing.assert_array_equal(sub.observations, sp.observations[[1, 3]])
    assert sub.theta_star is sp.theta_star
    with pytest.raises(ValueError):
        sp.subset([])  # used to build a zero-trip dataset


def test_synth_instance_deterministic_and_coherent():
    a = synth_graph_instance(num_nodes=20, num_edges=35, m=4, n=30, sigma=0.2, seed=3)
    b = synth_graph_instance(num_nodes=20, num_edges=35, m=4, n=30, sigma=0.2, seed=3)
    np.testing.assert_array_equal(a.contexts, b.contexts)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.observations, b.observations)
    # observations really are the shortest paths under realized times
    np.testing.assert_array_equal(a.observations, shortest_path_batch(a.graph, a.times))
    assert a.theta_star.p == 35 * 4
    assert (a.times > 0).all()
    assert (a.contexts[:, -1] == 1.0).all()


def test_synth_instance_zero_noise_times_are_linear():
    sp = synth_graph_instance(num_nodes=12, num_edges=20, m=3, n=15, sigma=0.0, seed=4)
    np.testing.assert_allclose(sp.times, sp.contexts @ sp.theta_star.values.reshape(20, 3).T)


def test_synth_instance_rejects_bad_sigma():
    # a NaN or negative sigma used to build the noiseless instance, and one
    # whose square overflows raised an untyped OverflowError
    for bad in (float("nan"), -0.5, float("inf"), 1e200, np.float64(1e200)):
        with pytest.raises(ValueError):
            synth_graph_instance(num_nodes=12, num_edges=20, m=3, n=15, sigma=bad, seed=4)


def test_synth_instance_accepts_pinned_theta():
    g = grid_graph(12, 20)
    theta = planted_theta(g, m=3, seed=9)
    sp = synth_graph_instance(num_nodes=12, num_edges=20, m=3, theta_star=theta, n=5, seed=5)
    np.testing.assert_array_equal(sp.theta_star.values.reshape(20, 3), theta)
    with pytest.raises(ValueError):
        synth_graph_instance(num_nodes=12, num_edges=20, m=3, theta_star=theta[:, :-1], n=5)
    with pytest.raises(ValueError):
        synth_graph_instance(num_nodes=12, num_edges=20, m=1, n=5)


def test_synth_instance_rejects_bad_counts():
    # n = 0 used to build a zero-trip dataset; the floats failed inside numpy
    for kwargs in ({"n": 0}, {"n": 2.5}, {"m": 2.5}, {"num_nodes": 45.0}, {"n": True}):
        with pytest.raises(ValueError):
            synth_graph_instance(**{"num_nodes": 12, "num_edges": 20, "m": 3, "n": 5, **kwargs})


# ---------------------------------------------------------------------------
# CSV ingestion


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_graph_round_trip(tmp_path):
    edges = "edge_id,tail,head\n0,a,b\n1,b,c\n2,a,c\n"
    g = load_graph(_write(tmp_path, "e.csv", edges), "a", "c")
    assert g.num_nodes == 3 and g.num_edges == 3
    assert g.source == 0 and g.sink == 2
    np.testing.assert_array_equal(g.tails, [0, 1, 0])
    np.testing.assert_array_equal(g.heads, [1, 2, 2])


def test_load_graph_errors_carry_line_numbers(tmp_path):
    with pytest.raises(ParseError) as err:
        load_graph(_write(tmp_path, "h.csv", "edge,tail,head\n0,a,b\n"), "a", "b")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        load_graph(_write(tmp_path, "c.csv", "edge_id,tail,head\n0,a,b\n1,b\n"), "a", "b")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        load_graph(_write(tmp_path, "i.csv", "edge_id,tail,head\nx,a,b\n"), "a", "b")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        load_graph(_write(tmp_path, "g.csv", "edge_id,tail,head\n0,a,b\n2,b,c\n"), "a", "c")
    with pytest.raises(ParseError):
        load_graph(_write(tmp_path, "m.csv", "edge_id,tail,head\n0,a,b\n"), "a", "zz")
    with pytest.raises(ParseError):
        load_graph(_write(tmp_path, "n.csv", "edge_id,tail,head\n"), "a", "b")


def test_load_records_round_trip(tmp_path):
    edges = "edge_id,tail,head\n0,s,m\n1,m,t\n2,s,t\n"
    g = load_graph(_write(tmp_path, "e.csv", edges), "s", "t")
    recs = "t_0,t_1,t_2,f_1\n1.0,1.0,3.0,0.4\n2.0,2.0,1.5,0.9\n"
    sp = load_records(_write(tmp_path, "r.csv", recs), g)
    assert len(sp) == 2
    assert sp.theta_star is None
    np.testing.assert_array_equal(sp.contexts, [[0.4, 1.0], [0.9, 1.0]])
    # row 1: s->m->t costs 2 < direct 3; row 2: direct 1.5 wins
    np.testing.assert_array_equal(sp.observations, [[1, 1, 0], [0, 0, 1]])


def test_load_records_errors_carry_line_numbers(tmp_path):
    g = load_graph(_write(tmp_path, "e.csv", "edge_id,tail,head\n0,s,t\n"), "s", "t")
    with pytest.raises(ParseError) as err:
        load_records(_write(tmp_path, "bad_header.csv", "time,f_1\n1.0,0.2\n"), g)
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        load_records(_write(tmp_path, "bad_feat.csv", "t_0,g_1\n1.0,0.2\n"), g)
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        load_records(_write(tmp_path, "neg.csv", "t_0,f_1\n1.0,0.2\n-1.0,0.5\n"), g)
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        load_records(_write(tmp_path, "nan.csv", "t_0,f_1\n1.0,oops\n"), g)
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        load_records(_write(tmp_path, "width.csv", "t_0,f_1\n1.0,0.2,9\n"), g)
    assert err.value.line == 2
    with pytest.raises(ParseError):
        load_records(_write(tmp_path, "empty.csv", "t_0,f_1\n"), g)


def test_load_graph_rejects_cyclic_graph(tmp_path):
    # a <-> b is a two-way street: the graph does not load
    edges = "edge_id,tail,head\n0,s,a\n1,a,b\n2,b,a\n3,a,t\n4,b,t\n"
    with pytest.raises(UnsupportedRegionError):
        load_graph(_write(tmp_path, "e.csv", edges), "s", "t")


def test_load_graph_rejects_unreachable_sink(tmp_path):
    # t only leaves; the graph fails to load before any records are read
    edges = "edge_id,tail,head\n0,s,a\n1,t,a\n"
    with pytest.raises(UnreachableError, match="no path"):
        load_graph(_write(tmp_path, "e.csv", edges), "s", "t")


def test_load_records_skips_blank_lines(tmp_path):
    g = load_graph(_write(tmp_path, "e.csv", "edge_id,tail,head\n0,s,t\n"), "s", "t")
    sp = load_records(_write(tmp_path, "r.csv", "t_0,f_1\n1.0,0.2\n\n2.0,0.4\n"), g)
    assert len(sp) == 2


# ---------------------------------------------------------------------------
# split / fit / run


def test_train_test_split_contract():
    tr, te = train_test_split(10, seed=0)
    assert sorted(np.concatenate([tr, te]).tolist()) == list(range(10))
    assert len(tr) == 6 and len(te) == 4
    tr2, te2 = train_test_split(10, seed=0)
    np.testing.assert_array_equal(tr, tr2)
    np.testing.assert_array_equal(te, te2)
    assert not np.array_equal(train_test_split(10, seed=1)[0], tr)
    with pytest.raises(ValueError):
        train_test_split(1, seed=0)


def test_sp_fit_rejects_unknown_and_kka():
    sp = synth_graph_instance(num_nodes=12, num_edges=20, m=3, n=10, seed=1)
    with pytest.raises(ValueError):
        sp_fit(sp, "GRADIENT")
    with pytest.raises(UnsupportedRegionError):
        sp_fit(sp, "KKA")
    assert "KKA" in METHODS


def test_sp_fit_seed_is_injected_and_deterministic():
    sp = synth_graph_instance(num_nodes=12, num_edges=20, m=3, n=40, sigma=0.1, seed=2)
    cfg = SgdConfig(learning_rate=0.2, batch_size=8, max_iters=30, lam=0.5, eval_every=10)
    a = sp_fit(sp, "FY", cfg, seed=7)
    b = sp_fit(sp, "FY", cfg, seed=7)
    np.testing.assert_array_equal(a.theta.values, b.theta.values)
    c = sp_fit(sp, "FY", cfg, seed=8)
    assert not np.array_equal(a.theta.values, c.theta.values)


def test_sp_run_report_contract():
    sp = synth_graph_instance(num_nodes=12, num_edges=20, m=3, n=60, sigma=0.1, seed=3)
    cfg = SgdConfig(learning_rate=0.2, batch_size=12, max_iters=40, lam=0.5, eval_every=20)
    rep = sp_run(sp, "FY", cfg, seed=0)
    assert isinstance(rep, MetricsReport)
    assert rep.n_test == 24
    assert np.isfinite(rep.parameter_error)
    assert rep.decision_error >= 0.0
    assert rep.regret >= -1e-9  # clairvoyant paths are optimal for their times
    assert rep.relative_regret_ratio == pytest.approx(
        100.0 * rep.regret / np.mean(np.einsum("ij,ij->i", sp.times, sp.observations)), rel=0.5
    )
    assert rep.wall_time > 0.0


def test_sp_run_parameter_error_nan_without_truth(tmp_path):
    g = load_graph(
        _write(tmp_path, "e.csv", "edge_id,tail,head\n0,s,m\n1,m,t\n2,s,t\n"), "s", "t"
    )
    rows = ["t_0,t_1,t_2,f_1"]
    rng = rng_stream(11)
    for _ in range(30):
        t = rng.uniform(0.5, 2.0, 3)
        rows.append(f"{t[0]},{t[1]},{t[2]},{rng.uniform():.3f}")
    sp = load_records(_write(tmp_path, "r.csv", "\n".join(rows) + "\n"), g)
    cfg = SgdConfig(learning_rate=0.2, batch_size=8, max_iters=20, lam=0.5, eval_every=10)
    rep = sp_run(sp, "FY", cfg, seed=0)
    assert np.isnan(rep.parameter_error)
    assert rep.decision_error >= 0.0


def test_sp_run_subopt_and_spa_paths():
    sp = synth_graph_instance(num_nodes=12, num_edges=20, m=3, n=50, sigma=0.1, seed=4)
    sub_cfg = SgdConfig(learning_rate=0.3, batch_size=8, max_iters=60, step_decay="inv_sqrt", eval_every=20)
    rep = sp_run(sp, "SUBOPT", sub_cfg, seed=0)
    assert rep.regret >= -1e-9
    spa_cfg = SgdConfig(learning_rate=0.3, batch_size=8, max_iters=40, eval_every=20)
    rep2 = sp_run(sp, "SPA", spa_cfg, seed=0)
    assert rep2.decision_error >= 0.0


@pytest.mark.parametrize("method", ["SUBOPT", "SPA"])
def test_grid_baselines_leave_their_start(method):
    # theta = 0 zeroes the hinged risk on this multiplicative cost map, so
    # without the unit-norm constraint the default fits never leave it
    cfg = dataclasses.replace(spath._DEFAULT_CFG[method], max_iters=1000, eval_every=250)
    at_zero = dataclasses.replace(cfg, max_iters=0, unit_norm=False)
    for seed in range(3):
        sp = synth_graph_instance(num_nodes=12, num_edges=20, m=3, n=100, sigma=0.1, seed=seed)
        fit = sp_fit(sp, method, cfg, seed=0)
        assert np.linalg.norm(fit.theta.values) == pytest.approx(1.0, abs=1e-12)
        assert sp_run(sp, method, cfg, seed=0).regret < sp_run(sp, method, at_zero, seed=0).regret
