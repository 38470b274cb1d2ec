"""Shortest paths, closed-form projections, and the Frank-Wolfe projector."""

import tracemalloc

import numpy as np
import pytest

from fyinv import (
    Ball,
    Box,
    CostKind,
    CostMap,
    FlowPolytope,
    ForwardProblem,
    Graph,
    NonConvergenceError,
    NonNegL1Cap,
    Sense,
    UnreachableError,
    SgdConfig,
    build_example,
    UnsupportedRegionError,
    fy_grad,
    fy_loss,
    grid_graph,
    project,
    region_contains,
    rng_stream,
    shortest_path,
    solve_exact,
    solve_regularized,
    synth_graph_instance,
)
from fyinv import spath
from fyinv.graphs import shortest_path_batch
from fyinv.losses import _fy_batch
from fyinv.solvers import (
    _CORRECT_EVERY,
    _FW_MAX_ITERS,
    _correct_rows,
    _fw_project_batch,
    _linear_argmax_batch,
    _project_ball_batch,
    _project_nonneg_l1cap_batch,
    _simplex_lsq_batch,
    _solve_reg_batch,
)

from oracles import (
    dykstra_cap,
    enum_paths,
    hull_project,
    newton_cap,
    pg_argmax,
    random_cyclic,
    random_dag,
    relabel_nodes,
    rescale_ball,
    sample_region,
    tie_broken_paths,
    vi_gap,
)


# ---------------------------------------------------------------------------
# graphs


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, np.array([0]), np.array([0]), 0, 0)
    with pytest.raises(ValueError):
        Graph(2, np.array([0]), np.array([2]), 0, 1)
    with pytest.raises(ValueError):
        Graph(2, np.array([0]), np.array([1]), 0, 0)
    with pytest.raises(ValueError):
        Graph(3, np.array([0, 1]), np.array([1]), 0, 2)
    # non-integer endpoints would be truncated into a different graph
    for tails in ([0.0, 1.7], np.array([0.0, 1.0]), np.array([False, True])):
        with pytest.raises(ValueError, match="integers"):
            Graph(3, tails, np.array([1, 2]), 0, 2)
    with pytest.raises(ValueError, match="integers"):
        Graph(3, np.array([0, 1]), [1.0, 2.0], 0, 2)
    # counts and node indices must be integers, not floats or bools
    for kw in ({"num_nodes": 3.0}, {"source": 0.5}, {"source": True}, {"sink": 2.0}):
        args = {"num_nodes": 3, "tails": [0, 1], "heads": [1, 2], "source": 0, "sink": 2} | kw
        with pytest.raises(ValueError):
            Graph(**args)
    ok = Graph(np.int64(3), np.array([0, 1], dtype=np.int32), [1, 2], np.int64(0), 2)
    assert ok.tails.dtype == np.int64 and ok.heads.dtype == np.int64
    with pytest.raises(UnreachableError):
        Graph(3, np.array([]), np.array([]), 0, 2)
    # the graph keeps read-only copies: the caller's arrays may change later
    t = np.array([0, 1])
    g = Graph(3, t, np.array([1, 2]), 0, 2)
    t[0] = 2
    np.testing.assert_array_equal(g.tails, [0, 1])
    assert g._topo_edge_order == [(0, 1, 0), (1, 2, 1)]
    assert g.tails.flags.writeable is False and g.heads.flags.writeable is False


def test_shortest_path_matches_enumeration_on_random_dags():
    rng = rng_stream(10)
    for trial in range(60):
        g = random_dag(rng)
        paths = enum_paths(g)
        assert paths.shape[0] >= 1
        costs = rng.standard_normal(g.num_edges)  # negative edges allowed
        x = shortest_path(g, costs)
        vals = paths @ costs
        # generic costs: the optimum is unique, indicators must agree
        assert abs(float(costs @ x) - float(vals.min())) < 1e-12
        np.testing.assert_array_equal(x, paths[int(vals.argmin())])


def test_shortest_path_bellman_ford_on_cyclic_graphs():
    # Graphs are acyclic by construction, so no cyclic graph reaches the
    # oracle: each of these draws is rejected when it is built.
    rng = rng_stream(11)
    for trial in range(40):
        with pytest.raises(UnsupportedRegionError, match="cycle"):
            random_cyclic(rng)


def test_shortest_path_negative_cycle_raises():
    # 0 -> 1 -> 2 with a loop 1 -> 3 -> 1: rejected at construction, so
    # no cost vector, negative cycle or not, can reach the oracle
    with pytest.raises(UnsupportedRegionError, match="cycle"):
        Graph(4, np.array([0, 1, 3, 1]), np.array([1, 3, 1, 2]), 0, 2)
    # a self-loop at node 1 of the path 0 -> 1 -> 2 is a cycle too
    with pytest.raises(UnsupportedRegionError, match="cycle"):
        Graph(3, np.array([0, 1, 1]), np.array([1, 1, 2]), 0, 2)


def test_flow_polytope_rejects_cyclic_graph():
    # a 4-node graph with one two-way street 1 <-> 2: no FlowPolytope can
    # be built over it, since the Graph itself does not construct
    with pytest.raises(UnsupportedRegionError, match="cycle"):
        Graph(4, np.array([0, 1, 2, 1, 2]), np.array([1, 2, 1, 3, 3]), 0, 3)
    # the same streets one way only form a DAG, which stays supported
    dag = Graph(4, np.array([0, 1, 1, 2]), np.array([1, 2, 3, 3]), 0, 3)
    assert region_contains(FlowPolytope(dag), shortest_path(dag, np.ones(4)))


def test_shortest_path_unreachable_raises():
    # a graph with no source-sink path is rejected when it is built, so no
    # cost vector can reach the oracle on one
    with pytest.raises(UnreachableError, match="no path from node 0 to node 2"):
        Graph(3, np.array([0]), np.array([1]), 0, 2)
    # edges that leave the sink or enter the source do not join them
    with pytest.raises(UnreachableError):
        Graph(4, np.array([1, 2, 3]), np.array([0, 3, 1]), 0, 3)
    with pytest.raises(UnreachableError):
        Graph(2, [], [], 0, 1)
    # a cycle is reported as such, whether or not the sink is reachable
    with pytest.raises(UnsupportedRegionError, match="cycle"):
        Graph(4, np.array([1, 2]), np.array([2, 1]), 0, 3)


def test_shortest_path_overflow_is_not_unreachable():
    # path sums past the float64 range used to warn and then report "no path"
    g = grid_graph(45, 93)
    for big in (1e308, -1e308):
        with pytest.raises(ValueError, match="overflow"):
            shortest_path_batch(g, np.full((2, 93), big))
    with pytest.raises(ValueError, match="overflow"):
        project(FlowPolytope(g), np.full(93, -1e308))
    # an overflowing detour is no error
    g = Graph(3, np.array([0, 1, 0]), np.array([1, 2, 2]), 0, 2)
    np.testing.assert_array_equal(shortest_path(g, np.array([1e308, 1e308, 1.0])), [0, 0, 1])


def test_shortest_path_deterministic_under_ties():
    rng = rng_stream(12)
    for _ in range(20):
        g = random_dag(rng)
        zero = np.zeros(g.num_edges)
        a = shortest_path(g, zero)
        b = shortest_path(g, zero)
        np.testing.assert_array_equal(a, b)
        assert region_contains(FlowPolytope(g), a)


def _tie_costs(rng, nb, ne):
    return {
        "zero": np.zeros((nb, ne)),
        "small-int": rng.integers(-2, 3, (nb, ne)).astype(float),
        "zero-or-tenth": rng.choice([0.0, 0.1], (nb, ne)),
    }


def test_shortest_path_tie_break_matches_scan_order_reference():
    # Tie-heavy costs pin the documented rule bitwise, on random DAGs (with
    # relabelled nodes, so Kahn order differs from node index) and the
    # 45-node grid.
    rng = rng_stream(15)
    graphs = [grid_graph(45, 93)]
    for _ in range(12):
        graphs.append(random_dag(rng))
        graphs.append(relabel_nodes(random_dag(rng), rng))
        # the rejected draw keeps the later DAG draws as they were
        with pytest.raises(UnsupportedRegionError):
            random_cyclic(rng)
    for g in graphs:
        for nb in (1, 7, 96, 300):
            for name, costs in _tie_costs(rng, nb, g.num_edges).items():
                got = shortest_path_batch(g, costs)
                np.testing.assert_array_equal(got, tie_broken_paths(g, costs), err_msg=name)


def test_shortest_path_rejects_non_finite_costs():
    g = grid_graph(6, 7)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            shortest_path(g, np.full(7, bad))
        costs = np.ones((4, 7))
        costs[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            shortest_path_batch(g, costs)
    with pytest.raises(ValueError, match="finite"):
        project(FlowPolytope(g), np.full(7, np.nan))


def test_shortest_path_batch_matches_scalar():
    rng = rng_stream(13)
    for _ in range(15):
        g = random_dag(rng)
        costs = rng.standard_normal((9, g.num_edges))
        batch = shortest_path_batch(g, costs)
        for i in range(9):
            np.testing.assert_array_equal(batch[i], shortest_path(g, costs[i]))
    assert shortest_path_batch(g, np.zeros((0, g.num_edges))).shape == (0, g.num_edges)


def test_shortest_path_shape_checks():
    g = random_dag(rng_stream(14))
    with pytest.raises(ValueError):
        shortest_path(g, np.zeros(g.num_edges + 1))
    with pytest.raises(ValueError):
        shortest_path_batch(g, np.zeros(g.num_edges))


# ---------------------------------------------------------------------------
# closed-form projections vs oracles


def test_project_box_clips():
    rng = rng_stream(20)
    lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 3.0])
    for _ in range(100):
        v = rng.uniform(-4, 6, 3)
        got = project(Box(lo, hi), v)
        assert np.all(got >= lo) and np.all(got <= hi)
        np.testing.assert_allclose(got, np.minimum(np.maximum(v, lo), hi))


def test_project_ball_matches_oracle():
    rng = rng_stream(21)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        v = rng.uniform(-4, 4, d)
        r = float(rng.uniform(0.5, 3.0))
        np.testing.assert_allclose(
            project(Ball(d, r), v), rescale_ball(v[None, :], r)[0], atol=1e-12
        )


def test_ball_norm_overflow_keeps_the_direction():
    # the squared norm of these rows overflows float64: the projection and
    # the linear argmax used to scale them by radius / inf = 0
    np.testing.assert_array_equal(project(Ball(3, 1.0), [1e200, 0, 0]), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(
        project(Ball(2, 2.0), [1e308, -1e308]), [2**0.5, -(2**0.5)], rtol=1e-15
    )
    rows = np.array([[3e200, -4e200, 0.0], [3.0, -4.0, 0.0], [0.03, 0.04, 0.0]])
    want = np.array([[0.6, -0.8, 0.0], [0.6, -0.8, 0.0], [0.03, 0.04, 0.0]])
    got = _project_ball_batch(rows, 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-15)
    # rows with a finite norm keep their bits
    np.testing.assert_array_equal(got[1:], rows[1:] * np.array([[1.0 / 5.0], [1.0]]))
    np.testing.assert_allclose(
        _linear_argmax_batch(Ball(3, 2.0), rows),
        [[1.2, -1.6, 0.0], [1.2, -1.6, 0.0], [1.2, 1.6, 0.0]],
        rtol=1e-15,
    )

    fp, _, _ = build_example("E")
    u = np.zeros(fp.cost_map.m)
    theta = rng_stream(23).uniform(0.5, 1.5, fp.cost_map.p)
    x_ref = solve_regularized(fp, theta, u, 1e-3)
    assert np.linalg.norm(x_ref) > 2.99  # the unregularized point lies outside the ball
    for lam in (1e-160, 1e-300):
        np.testing.assert_allclose(solve_regularized(fp, theta, u, lam), x_ref, rtol=1e-12)
    np.testing.assert_allclose(solve_exact(fp, 1e300 * theta, u), solve_exact(fp, theta, u), rtol=1e-12)


def test_project_cap_matches_newton_and_dykstra():
    rng = rng_stream(22)
    for trial in range(120):
        d = int(rng.integers(1, 7))
        cap = float(rng.uniform(0.5, 4.0))
        v = rng.uniform(-3, 3, d)
        got = project(NonNegL1Cap(d, cap), v)
        np.testing.assert_allclose(got, newton_cap(v[None, :], cap)[0], atol=1e-10)
        if trial % 4 == 0:
            np.testing.assert_allclose(got, dykstra_cap(v, cap), atol=1e-7)


def test_project_cap_keeps_the_cap_on_huge_entries():
    # the top entry's cumulative sum swallowed the cap in rounding, which
    # left no entry above the threshold and divided by zero
    capr = NonNegL1Cap(3, 1.0)
    np.testing.assert_array_equal(project(capr, [1e17, 0, 0]), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(project(capr, [1e17, 1e17, 0]), [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(project(capr, [-5.0, 3e300, 1e300]), [0.0, 1.0, 0.0])
    for v in ([1e308, -1e308, 0.0], [1e308, 0.0, -1e300]):
        np.testing.assert_array_equal(project(capr, v), [1.0, 0.0, 0.0])
    rows = rng_stream(26).uniform(-3, 3, (6, 3))
    rows[[1, 4]] = [[1e17, 0.0, 0.0], [2.0, 1e20, 2.0]]
    got = _project_nonneg_l1cap_batch(rows, 1.0)
    np.testing.assert_array_equal(got[[1, 4]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # the other rows keep the bits they have in a batch of their own
    rest = [0, 2, 3, 5]
    np.testing.assert_array_equal(got[rest], _project_nonneg_l1cap_batch(rows[rest], 1.0))
    # a clipped sum that overflowed to inf warned and returned the input,
    # past the cap
    np.testing.assert_array_equal(project(NonNegL1Cap(3, 1e308), [1e308, 1e308, 0]), [5e307, 5e307, 0])
    np.testing.assert_array_equal(project(NonNegL1Cap(3, 1e-20), [1e308, 1e308, 0]), [5e-21, 5e-21, 0])
    rows[[1, 4]] = [[1e308, 1e308, -1e308], [1.7e308, 3.0, 1.7e308]]
    got = _project_nonneg_l1cap_batch(rows, 1e308)
    for i in (1, 4):
        np.testing.assert_allclose(got[i], 1e308 * newton_cap(rows[i : i + 1] / 1e308, 1.0)[0], rtol=1e-12)
    np.testing.assert_array_equal(got[rest], _project_nonneg_l1cap_batch(rows[rest], 1e308))
    # family A's regularized solve at a tiny lam reaches its exact decision
    # (it returned all-inf)
    fp, theta, _ = build_example("A")
    for u in rng_stream(27).uniform(-1, 1, (5, fp.cost_map.m)):
        x = solve_exact(fp, theta, u)
        assert x.sum() == fp.region.cap
        for lam in (1e-20, 1e-160):
            np.testing.assert_array_equal(solve_regularized(fp, theta, u, lam), x)


def test_project_cap_variational_inequality():
    """<v - x, z - x> <= 0 for feasible z certifies the projection."""
    rng = rng_stream(23)
    region = NonNegL1Cap(5, 2.0)
    for _ in range(60):
        v = rng.uniform(-3, 3, 5)
        x = project(region, v)
        assert region_contains(region, x)
        for _ in range(10):
            z = sample_region(region, 5, rng)
            assert float((v - x) @ (z - x)) <= 1e-9


def test_project_rejects_bad_points():
    # the closed forms passed NaN and inf entries through unchecked
    g = random_dag(rng_stream(25))
    regions = [
        (Box.cube(3, -1.0, 1.0), 3),
        (Ball(3, 2.0), 3),
        (NonNegL1Cap(3, 2.0), 3),
        (FlowPolytope(g), g.num_edges),
    ]
    for region, d in regions:
        for bad in (np.nan, np.inf, -np.inf):
            v = np.zeros(d)
            v[1] = bad
            with pytest.raises(ValueError, match="finite"):
                project(region, v)
        with pytest.raises(ValueError, match="1-D"):
            project(region, np.zeros((2, d)))
        with pytest.raises(ValueError, match="1-D"):
            project(region, 0.5)
    for region, d in regions:
        for n in (d - 1, d + 1):
            with pytest.raises(ValueError, match="entries"):
                project(region, np.zeros(n))


def test_cap_oracles_agree_with_each_other():
    # belt and suspenders: the two independent references must also match
    rng = rng_stream(24)
    for _ in range(40):
        v = rng.uniform(-3, 3, 6)
        cap = float(rng.uniform(0.5, 3.0))
        np.testing.assert_allclose(newton_cap(v[None, :], cap)[0], dykstra_cap(v, cap), atol=1e-7)


# ---------------------------------------------------------------------------
# linear argmax


def test_linear_argmax_box_dominates_feasible_points():
    rng = rng_stream(30)
    region = Box.cube(4, -1.0, 2.0)
    for _ in range(50):
        hc = rng.standard_normal(4)
        x = _linear_argmax_batch(region, hc[None])[0]
        assert region_contains(region, x)
        for _ in range(10):
            z = sample_region(region, 4, rng)
            assert hc @ x >= hc @ z - 1e-12


def test_linear_argmax_tie_breaks():
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 4.0]))
    np.testing.assert_array_equal(_linear_argmax_batch(box, np.zeros((1, 2)))[0], [0.0, 2.0])
    ball = Ball(3, 2.0)
    np.testing.assert_array_equal(_linear_argmax_batch(ball, np.zeros((1, 3)))[0], np.zeros(3))
    capr = NonNegL1Cap(2, 3.0)
    np.testing.assert_array_equal(_linear_argmax_batch(capr, np.array([[-1.0, -2.0]]))[0], [0.0, 0.0])
    # ties in the cap argmax go to the lowest index
    np.testing.assert_array_equal(_linear_argmax_batch(capr, np.array([[2.0, 2.0]]))[0], [3.0, 0.0])


def test_linear_argmax_ball_closed_form():
    rng = rng_stream(31)
    ball = Ball(5, 1.5)
    for _ in range(50):
        hc = rng.standard_normal(5)
        x = _linear_argmax_batch(ball, hc[None])[0]
        np.testing.assert_allclose(x, 1.5 * hc / np.linalg.norm(hc), atol=1e-12)


def test_linear_argmax_flow_is_min_cost_path():
    rng = rng_stream(32)
    for _ in range(20):
        g = random_dag(rng)
        hc = rng.standard_normal(g.num_edges)
        x = _linear_argmax_batch(FlowPolytope(g), hc[None])[0]
        paths = enum_paths(g)
        assert abs(float(hc @ x) - float((paths @ hc).max())) < 1e-12


def test_linear_argmax_batch_matches_scalar():
    rng = rng_stream(33)
    for region, d in [
        (Box.cube(4, -1, 1), 4),
        (Ball(4, 2.0), 4),
        (NonNegL1Cap(4, 3.0), 4),
        (FlowPolytope(random_dag(rng)), None),
    ]:
        d = d if d is not None else region.graph.num_edges
        hcs = rng.standard_normal((25, d))
        hcs[3] = 0.0  # exercise the tie row
        batch = _linear_argmax_batch(region, hcs)
        for i in range(25):
            np.testing.assert_array_equal(batch[i], _linear_argmax_batch(region, hcs[i][None])[0])


# ---------------------------------------------------------------------------
# forward solves vs the projected-gradient oracle


def _identity_problem(region, d, sense=Sense.MAX, base_quad=0.0):
    return ForwardProblem(CostMap(CostKind.IDENTITY, d, 1), region, sense, base_quad)


def test_solve_regularized_matches_pg_oracle():
    rng = rng_stream(40)
    cases = {
        "box": (Box.cube(4, -1.5, 2.0), lambda x: np.clip(x, -1.5, 2.0)),
        "ball": (Ball(4, 2.5), lambda x: rescale_ball(x, 2.5)),
        "cap": (NonNegL1Cap(4, 2.0), lambda x: newton_cap(x, 2.0)),
    }
    u = np.zeros(1)
    for name, (region, projector) in cases.items():
        hcs = rng.uniform(-3, 3, (12, 4))
        lams = rng.uniform(0.5, 2.5, 12)
        want = pg_argmax(projector, hcs, lams, step=5e-3, iters=20_000, restarts=3, seed=1)
        fp = _identity_problem(region, 4)
        for i in range(12):
            got = solve_regularized(fp, hcs[i], u, float(lams[i]))
            np.testing.assert_allclose(got, want[i], atol=1e-6, err_msg=name)


def test_solve_exact_base_quad_matches_pg_oracle():
    rng = rng_stream(41)
    region = Box.cube(4, 0.0, 1.0)
    hcs = rng.uniform(-2, 4, (12, 4))
    q = 2.0
    want = pg_argmax(
        lambda x: np.clip(x, 0.0, 1.0), hcs, np.full(12, q),
        step=5e-3, iters=20_000, restarts=3, seed=2,
    )
    fp = _identity_problem(region, 4, base_quad=q)
    for i in range(12):
        np.testing.assert_allclose(solve_exact(fp, hcs[i], np.zeros(1)), want[i], atol=1e-6)


def test_solve_regularized_respects_min_sense():
    # minimizing h^T x equals maximizing (-h)^T x
    region = Box.cube(3, -1.0, 1.0)
    fp_min = _identity_problem(region, 3, Sense.MIN)
    fp_max = _identity_problem(region, 3, Sense.MAX)
    h = np.array([1.0, -0.5, 0.2])
    a = solve_regularized(fp_min, h, np.zeros(1), 0.7)
    b = solve_regularized(fp_max, -h, np.zeros(1), 0.7)
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_solve_regularized_rejects_bad_lam():
    fp = _identity_problem(Box.cube(2, 0, 1), 2)
    with pytest.raises(ValueError):
        solve_regularized(fp, np.ones(2), np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        solve_regularized(fp, np.ones(2), np.zeros(1), -1.0)
    # lam = inf solved to the projection of 0 instead of raising
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            solve_regularized(fp, np.ones(2), np.zeros(1), bad)


def test_solve_regularized_converges_to_exact_as_lam_shrinks():
    fp = _identity_problem(Ball(4, 2.0), 4)
    h = np.array([1.0, 2.0, -1.0, 0.5])
    x_star = solve_exact(fp, h, np.zeros(1))
    x_tiny = solve_regularized(fp, h, np.zeros(1), 1e-8)
    np.testing.assert_allclose(x_tiny, x_star, atol=1e-6)


# ---------------------------------------------------------------------------
# Frank-Wolfe projection onto path polytopes


def test_fw_project_matches_enumerated_hull_oracle():
    rng = rng_stream(50)
    for trial in range(25):
        g = random_dag(rng)
        target = rng.uniform(-1.0, 2.0, g.num_edges)
        x = project(FlowPolytope(g), target, 1e-12)
        paths = enum_paths(g)
        want, certified = hull_project(paths, target)
        assert certified
        np.testing.assert_allclose(x, want, atol=1e-5)
        assert vi_gap(paths, x, target) <= 1e-6


def test_fw_project_idempotent_on_vertices():
    rng = rng_stream(51)
    g = random_dag(rng)
    paths = enum_paths(g)
    x = project(FlowPolytope(g), paths[0], 1e-12)
    np.testing.assert_allclose(x, paths[0], atol=1e-10)


def test_fw_project_deterministic():
    rng = rng_stream(52)
    g = random_dag(rng)
    target = rng.uniform(-1, 2, g.num_edges)
    a = project(FlowPolytope(g), target)
    b = project(FlowPolytope(g), target)
    np.testing.assert_array_equal(a, b)


def test_fw_project_batch_matches_scalar():
    rng = rng_stream(53)
    g = random_dag(rng)
    targets = rng.uniform(-1, 2, (17, g.num_edges))
    batch = _fw_project_batch(g, targets.copy(), 1e-10)
    for i in range(17):
        np.testing.assert_allclose(batch[i], project(FlowPolytope(g), targets[i], 1e-10), atol=1e-8)


def test_fw_project_nonconvergence_carries_gap(monkeypatch):
    # diamond with three parallel middle routes; one iteration cannot span
    # the optimal face, so an absurd tolerance must fail loudly
    tails = np.array([0, 0, 0, 1, 2, 3])
    heads = np.array([1, 2, 3, 4, 4, 4])
    g = Graph(5, tails, heads, 0, 4)
    target = np.full(6, 1.0 / 3.0)
    monkeypatch.setattr("fyinv.solvers._FW_MAX_ITERS", 1)
    with pytest.raises(NonConvergenceError) as err:
        project(FlowPolytope(g), target, 1e-16)
    assert err.value.final_gap > 1e-16
    assert err.value.max_iters == 1
    # repeats of the target share its solve, so they fail with its gap
    with pytest.raises(NonConvergenceError) as many:
        _fw_project_batch(g, np.tile(target, (5, 1)), 1e-16)
    assert many.value.final_gap == err.value.final_gap
    assert many.value.max_iters == 1
    # so do they under the batch certificate, whose mean is that one gap
    with pytest.raises(NonConvergenceError) as mean:
        _fw_project_batch(g, np.tile(target, (5, 1)), 1e-16, batch_mean=True)
    assert mean.value.final_gap == err.value.final_gap


def _slow_grid_target():
    """A target on the 6 x 7 grid that takes exactly eight Frank-Wolfe
    iterations at gap_tol 1e-9, the eighth ending in the first correction."""
    g = grid_graph(6, 7)
    return g, rng_stream(0).uniform(-1, 2, (4, g.num_edges))[3]


def test_fw_project_certifies_on_the_pass_after_its_budget(monkeypatch):
    # the pass after a budget of eight certifies the slow target
    g, target = _slow_grid_target()
    want = _fw_project_batch(g, target[None, :], 1e-9)
    monkeypatch.setattr("fyinv.solvers._FW_MAX_ITERS", 8)
    np.testing.assert_array_equal(_fw_project_batch(g, target[None, :], 1e-9), want)
    monkeypatch.setattr("fyinv.solvers._FW_MAX_ITERS", 7)
    with pytest.raises(NonConvergenceError) as err:
        _fw_project_batch(g, target[None, :], 1e-9)
    assert err.value.max_iters == 7


def test_fw_budget_ends_on_a_correction():
    # the pass after _FW_MAX_ITERS certifies a corrected iterate
    assert _FW_MAX_ITERS % _CORRECT_EVERY == 0 and _FW_MAX_ITERS > _CORRECT_EVERY


def test_fw_project_batch_solves_each_distinct_target_once(monkeypatch):
    rng = rng_stream(56)
    g = random_dag(rng, max_nodes=10)
    distinct = rng.uniform(-1, 2, (6, g.num_edges))
    targets = np.concatenate([distinct, distinct[[0, 0, 3, 5, 3]], np.zeros((4, g.num_edges))])
    targets = targets[rng.permutation(targets.shape[0])]
    uniq, inv = np.unique(targets, axis=0, return_inverse=True)
    assert uniq.shape[0] == 7
    want = _fw_project_batch(g, uniq, 1e-10)[inv.reshape(-1)]

    oracle_rows = []

    def counted(graph, costs):
        oracle_rows.append(costs.shape[0])
        return shortest_path_batch(graph, costs)

    monkeypatch.setattr("fyinv.solvers.shortest_path_batch", counted)
    got = _fw_project_batch(g, targets.copy(), 1e-10)
    np.testing.assert_array_equal(got, want)
    assert oracle_rows[0] == 7


def test_fw_batch_mean_certificate_bounds_the_fy_means():
    # the batch certificate: mean ||x_i - x_i*||^2 <= 2 gap_tol, and the FY
    # loss within lam_eff gap_tol of the loss at the exact projections
    rng, lam, slow_rows = rng_stream(71), 0.5, 0
    for base_quad in (0.0,) * 4 + (1.0,) * 4:
        g = random_dag(rng, max_nodes=9)
        paths = enum_paths(g)
        cm = CostMap(CostKind.MATRIX_PRODUCT, g.num_edges, 3)
        fp = ForwardProblem(cm, FlowPolytope(g), Sense.MIN, base_quad)
        theta = rng.standard_normal(fp.cost_map.p)
        # eight distinct contexts drawn into forty rows, so most rows repeat
        ctxs = rng.uniform(-1, 1, (8, 3))[rng.integers(0, 8, 40)]
        ys = paths[rng.integers(0, paths.shape[0], 40)]
        hcs = fp._canonical_costs(theta, ctxs)
        targets = hcs / (base_quad + lam)
        uniq, inv = np.unique(targets, axis=0, return_inverse=True)
        exact = []
        for t in uniq:
            x_star, certified = hull_project(paths, t)
            assert certified
            exact.append(x_star)
        exact = np.array(exact)[inv.reshape(-1)]
        want = np.mean(fp._canonical_value(hcs, exact, lam) - fp._canonical_value(hcs, ys, lam))
        for gap_tol in (1e-3, 2e-2, spath._DEFAULT_CFG["FY"].gap_tol):
            xs = _solve_reg_batch(fp, hcs, lam, gap_tol)
            assert np.mean(np.sum((xs - exact) ** 2, axis=1)) <= 2 * gap_tol
            loss = _fy_batch(fp, theta, ctxs, ys, lam, gap_tol=gap_tol)[0]
            assert abs(loss - want) <= (base_quad + lam) * gap_tol + 1e-12
            slow_rows += sum(vi_gap(paths, x, t) > gap_tol for x, t in zip(xs, targets))
    assert slow_rows > 0  # some batch stopped on its mean, not on every row


def test_fw_batch_mean_keeps_one_row_and_dedup_bytes(monkeypatch):
    rng = rng_stream(72)
    for _ in range(6):
        g = random_dag(rng, max_nodes=9)
        distinct = rng.uniform(-0.5, 1.0, (10, g.num_edges))
        targets = distinct[rng.integers(0, 10, 40)]
        for gap_tol in (1e-3, 2e-2, spath._DEFAULT_CFG["FY"].gap_tol):
            # a one-row batch stops exactly where the per-row rule does
            for t in distinct[:3]:
                one = _fw_project_batch(g, t[None, :], gap_tol, batch_mean=True)
                assert one.tobytes() == _fw_project_batch(g, t[None, :], gap_tol).tobytes()
            # repeats weigh by their multiplicity, as if every row were solved
            got = _fw_project_batch(g, targets.copy(), gap_tol, batch_mean=True)
            with monkeypatch.context() as m:
                m.setattr("fyinv.solvers._distinct_rows", lambda a: (None, None))
                want = _fw_project_batch(g, targets.copy(), gap_tol, batch_mean=True)
            assert got.tobytes() == want.tobytes()


def test_fw_per_row_certificate_holds_on_every_row():
    # project, _solve_exact_batch and SPA's projection rely on each row
    rng = rng_stream(73)
    for _ in range(6):
        g = random_dag(rng, max_nodes=9)
        paths = enum_paths(g)
        targets = rng.uniform(-0.5, 1.0, (10, g.num_edges))[rng.integers(0, 10, 40)]
        for gap_tol in (1e-3, 2e-2, spath._DEFAULT_CFG["FY"].gap_tol):
            xs = _fw_project_batch(g, targets.copy(), gap_tol)
            assert max(vi_gap(paths, x, t) for x, t in zip(xs, targets)) <= gap_tol


def test_fw_batch_mean_makes_fewer_oracle_calls_on_the_grid(monkeypatch):
    # a training step's 96 FY targets on the planted grid at seed 0
    sp = synth_graph_instance(seed=0)
    fy = spath._DEFAULT_CFG["FY"]
    targets = spath._flow_problem(sp)._canonical_costs(0.1 * sp.theta_star.values, sp.contexts[:96]) / fy.lam
    calls = []

    def counted(graph, costs):
        calls[-1] += 1
        return shortest_path_batch(graph, costs)

    monkeypatch.setattr("fyinv.solvers.shortest_path_batch", counted)
    for batch_mean in (False, True):
        calls.append(0)
        _fw_project_batch(sp.graph, targets.copy(), fy.gap_tol, batch_mean=batch_mean)
    assert calls[1] < calls[0]


def test_fw_first_correction_comes_after_two_blocks(monkeypatch):
    log = []

    def counted_oracle(graph, costs):
        log.append("oracle")
        return shortest_path_batch(graph, costs)

    def counted_correction(*args, **kwargs):
        log.append("correct")
        return _correct_rows(*args, **kwargs)

    monkeypatch.setattr("fyinv.solvers.shortest_path_batch", counted_oracle)
    monkeypatch.setattr("fyinv.solvers._correct_rows", counted_correction)
    # 96 grid FY targets whose batch mean certifies within two blocks make
    # no correction; the first oracle call picks the start, and the pass
    # after each iteration calls it once more
    sp = synth_graph_instance(seed=0)
    fy = spath._DEFAULT_CFG["FY"]
    targets = spath._flow_problem(sp)._canonical_costs(0.5 * sp.theta_star.values, sp.contexts[:96]) / fy.lam
    _fw_project_batch(sp.graph, targets, fy.gap_tol, batch_mean=True)
    assert log.count("oracle") - 2 <= 2 * _CORRECT_EVERY
    assert "correct" not in log
    # a slow target is first corrected after iteration 2 x _CORRECT_EVERY
    log.clear()
    g, target = _slow_grid_target()
    _fw_project_batch(g, target[None, :], 1e-9)
    assert log.index("correct") == 1 + 2 * _CORRECT_EVERY


def test_fw_project_shape_check():
    g = random_dag(rng_stream(54))
    with pytest.raises(ValueError):
        project(FlowPolytope(g), np.zeros(g.num_edges + 2))


def test_gap_tol_validation():
    # every entry point that takes gap_tol rejects it, closed-form regions included
    g = random_dag(rng_stream(57))
    fp, theta, _ = build_example("C")
    u, y = np.ones(fp.cost_map.m), np.zeros(fp.cost_map.d)
    for bad in (0.0, -1e-6, float("nan"), float("inf")):
        for call in (
            lambda: project(FlowPolytope(g), np.zeros(g.num_edges), bad),
            lambda: project(Box(np.zeros(2), np.ones(2)), np.zeros(2), bad),
            lambda: solve_regularized(fp, theta, u, 0.5, gap_tol=bad),
            lambda: fy_loss(fp, theta, u, y, 0.5, gap_tol=bad),
            lambda: fy_grad(fp, theta, u, y, 0.5, gap_tol=bad),
            lambda: SgdConfig(gap_tol=bad),
        ):
            with pytest.raises(ValueError, match="gap_tol"):
                call()


def test_simplex_lsq_batch_matches_projection_oracle():
    rng = rng_stream(55)
    draws = []
    for _ in range(40):
        k = int(rng.integers(1, 7))
        draws.append((rng.standard_normal((k, 5)), rng.standard_normal(5)))
    for k in sorted({P.shape[0] for P, _ in draws}):
        Ps = np.stack([P for P, _ in draws if P.shape[0] == k])
        ts = np.stack([t for P, t in draws if P.shape[0] == k])
        ws = _simplex_lsq_batch(Ps, ts, np.ones(Ps.shape[:2], dtype=bool))
        assert ws.shape == (Ps.shape[0], k)
        for P, t, w in zip(Ps, ts, ws):
            assert abs(w.sum() - 1.0) < 1e-9 and w.min() >= -1e-12
            want, certified = hull_project(P, t)
            assert certified
            np.testing.assert_allclose(P.T @ w, want, atol=1e-7)


def test_simplex_lsq_batch_singular_kkt_uses_pinv(monkeypatch):
    # two diamonds in series: the four paths satisfy p1 + p4 = p2 + p3, so
    # the full-support KKT system is singular.  Listed as p1, p4, p2, p3 the
    # LU factorization meets an exact zero pivot and solve raises; in
    # enumeration order it may get a roundoff pivot and a garbage solution
    # instead, which the active set must recover from.
    tails = np.array([0, 0, 1, 2, 3, 3, 4, 5])
    heads = np.array([1, 2, 3, 3, 4, 5, 6, 6])
    paths = enum_paths(Graph(7, tails, heads, 0, 6))
    assert paths.shape[0] == 4
    ts = rng_stream(57).uniform(-1.0, 2.0, (12, 8))
    pinv_calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a: pinv_calls.append(a.shape) or pinv(a))
    for order in ([0, 3, 1, 2], [0, 1, 2, 3]):
        P = np.broadcast_to(paths[order], (12, 4, 8)).copy()
        ws = _simplex_lsq_batch(P, ts, np.ones((12, 4), dtype=bool))
        assert pinv_calls
        for t, w in zip(ts, ws):
            assert abs(w.sum() - 1.0) < 1e-9 and w.min() >= 0.0
            want, certified = hull_project(paths, t)
            assert certified
            np.testing.assert_allclose(paths[order].T @ w, want, atol=1e-7)


def test_simplex_lsq_batch_padded_stack_matches_projection_oracle():
    # one stack of mixed vertex counts, padded with garbage vertices that
    # must neither move the answer nor receive weight
    rng = rng_stream(58)
    counts = rng.integers(1, 7, 40)
    counts[:2] = (1, 6)
    k = int(counts.max())
    Ps = rng.standard_normal((40, k, 5))
    ts = rng.standard_normal((40, 5))
    valid = np.arange(k) < counts[:, None]
    ws = _simplex_lsq_batch(Ps, ts, valid)
    assert ws.shape == (40, k)
    assert np.all(ws[~valid] == 0.0)
    for P, t, w, n in zip(Ps, ts, ws, counts):
        assert abs(w.sum() - 1.0) < 1e-9 and w.min() >= -1e-12
        want, certified = hull_project(P[:n], t)
        assert certified
        np.testing.assert_allclose(P[:n].T @ w[:n], want, atol=1e-7)


def test_simplex_lsq_batch_pinv_gets_only_singular_systems(monkeypatch):
    # the two-diamonds rows (singular KKT, exact zero pivot) share a padded
    # stack with nonsingular rows of another vertex count
    tails = np.array([0, 0, 1, 2, 3, 3, 4, 5])
    heads = np.array([1, 2, 3, 3, 4, 5, 6, 6])
    paths = enum_paths(Graph(7, tails, heads, 0, 6))[[0, 3, 1, 2]]
    rng = rng_stream(59)
    Ps = rng.uniform(0.0, 1.0, (10, 6, 8))
    Ps[:4, :4] = paths
    valid = np.ones((10, 6), dtype=bool)
    valid[:4, 4:] = False
    ts = rng.uniform(-1.0, 2.0, (10, 8))
    pinv_inputs = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a: pinv_inputs.append(a) or pinv(a))
    ws = _simplex_lsq_batch(Ps, ts, valid)
    assert pinv_inputs
    for a in pinv_inputs:
        assert a.shape[0] <= 4 and np.all(np.linalg.det(a) == 0.0)
    assert np.all(ws[~valid] == 0.0)
    for P, t, w, ok in zip(Ps, ts, ws, valid):
        assert abs(w.sum() - 1.0) < 1e-9 and w.min() >= 0.0
        want, certified = hull_project(P[ok], t)
        assert certified
        np.testing.assert_allclose(P[ok].T @ w[ok], want, atol=1e-7)


def test_correct_rows_ignores_stale_slots(monkeypatch):
    # slots past a row's count may hold vertices left by earlier compactions
    rng = rng_stream(60)
    nb, cap, e = 8, 8, 10
    counts = np.array([1, 2, 3, 4, 5, 3, 4, 2])
    bits = rng.integers(0, 2, (nb, cap, e)).astype(np.uint8)
    stale = np.arange(cap) >= counts[:, None]
    verts = np.packbits(bits, axis=2)  # the packed layout of _fw_project_batch
    clean = verts.copy()
    clean[stale] = 0
    mix = rng.uniform(0.1, 1.0, (nb, cap)) * ~stale
    mix /= mix.sum(axis=1, keepdims=True)
    x = np.einsum("nk,nke->ne", mix, bits.astype(float))  # a point of each live hull
    targets = rng.uniform(-1.0, 2.0, (nb, e))
    rows = np.arange(nb)

    def run():
        outs = []
        for v in (verts.copy(), clean.copy()):
            c, xx = counts.copy(), x.copy()
            _correct_rows(v, c, xx, targets, rows=rows)
            live = np.arange(cap) < c[:, None]
            outs.append((v[live], c, xx))
        return outs

    (v1, c1, x1), (v2, c2, x2) = run()
    np.testing.assert_array_equal(c1, c2)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(v1, v2)
    assert np.any(c1 < counts)  # the compaction did run

    # Even a solver that leaks weight onto padded slots cannot revive them.
    def leaky(P, t, valid):
        return _simplex_lsq_batch(P, t, valid) + 1e-12 * ~valid

    monkeypatch.setattr("fyinv.solvers._simplex_lsq_batch", leaky)
    (v1, c1, _), (v2, c2, _) = run()
    assert np.all(c1 <= counts)
    np.testing.assert_array_equal(c1, c2)
    np.testing.assert_array_equal(v1, v2)


def test_correct_rows_block_size_keeps_the_bits(monkeypatch):
    # every block is padded to the group-wide vertex count, so one-row
    # blocks give the bytes of one stack
    rng = rng_stream(61)
    stacks = []

    def recorded(P, t, valid):
        stacks.append(P.shape[0])
        return _simplex_lsq_batch(P, t, valid)

    monkeypatch.setattr("fyinv.solvers._simplex_lsq_batch", recorded)
    graphs = [g for g in (random_dag(rng, 10) for _ in range(8)) if g.num_edges >= 12]
    assert len(graphs) >= 3
    for g in graphs:
        # tie-heavy integer and half-integer rows, drawn with repeats
        base = rng.integers(-2, 3, (120, g.num_edges)) * rng.choice([0.5, 1.0], (120, 1))
        targets = base[rng.integers(0, base.shape[0], 320)]
        for gap_tol in (1e-6, 2e-2):
            stacks.clear()
            want = _fw_project_batch(g, targets.copy(), gap_tol)
            assert max(stacks) > 1
            with monkeypatch.context() as m:
                m.setattr("fyinv.solvers._CORRECT_BLOCK_ELEMS", 1)
                stacks.clear()
                got = _fw_project_batch(g, targets.copy(), gap_tol)
            assert max(stacks) == 1
            assert got.tobytes() == want.tobytes()


def test_fw_projection_memory_is_bounded():
    # the grid FY fit's final 1,200-row risk evaluation: its traced peak was
    # 31.1 MB with float vertex stacks in one correction, 6.5 MB with packed
    # vertices corrected in blocks
    sp = synth_graph_instance(seed=0)
    fp = spath._flow_problem(sp)
    targets = fp._canonical_costs(0.1 * sp.theta_star.values, sp.contexts[:1200]) / 0.5
    tracemalloc.start()
    try:
        _fw_project_batch(sp.graph, targets, spath._DEFAULT_CFG["FY"].gap_tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6
