"""Parameters, cost maps, regions, and dataset sampling."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import fyinv
from fyinv import (
    Ball,
    Box,
    CostKind,
    CostMap,
    Dataset,
    FlowPolytope,
    ForwardProblem,
    Noiseless,
    NoisyDecision,
    NoisyObjective,
    NonNegL1Cap,
    Parameter,
    Sense,
    UniformContexts,
    as_parameter,
    cost,
    region_contains,
    build_example,
    regret,
    rng_stream,
    sample_dataset,
    solve_exact,
)
from fyinv.model import _cost_batch, _jac_t_mean
from fyinv.spath import grid_graph

from oracles import sample_region


def test_parameter_is_its_flat_values():
    assert [f.name for f in dataclasses.fields(Parameter)] == ["values"]
    m = np.arange(6.0).reshape(2, 3)
    p = Parameter(m)
    assert p.p == 6
    np.testing.assert_array_equal(p.values, m.ravel())
    # a MATRIX_PRODUCT cost reads the values as Theta.ravel(), row-major
    cm = CostMap(CostKind.MATRIX_PRODUCT, 2, 3)
    u = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(cost(cm, p, u), m @ u)
    np.testing.assert_array_equal(p.values.reshape(cm.d, cm.m), m)


def test_parameter_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            Parameter([1.0, bad])
        with pytest.raises(ValueError):
            Parameter(np.array([[bad, 0.0]]))
    # a NaN estimate used to score as a finite regret (the box midpoint)
    fp, theta_star, law = build_example("C")
    with pytest.raises(ValueError):
        regret(fp, np.full(fp.cost_map.p, np.nan), theta_star, law.sample(rng_stream(0), 5))


def test_parameter_values_immutable():
    p = Parameter([1.0, 2.0])
    with pytest.raises(ValueError):
        p.values[0] = 9.0


def test_cost_map_validation_and_p():
    with pytest.raises(ValueError):
        CostMap(CostKind.ADDITIVE, 3, 4)
    with pytest.raises(ValueError):
        CostMap(CostKind.HADAMARD, 2, 5)
    with pytest.raises(ValueError):
        CostMap(CostKind.IDENTITY, 0, 1)
    # non-integer widths used to construct; this one had p == 2.5
    with pytest.raises(ValueError):
        CostMap(CostKind.ADDITIVE, 2.5, 2.5)
    for d, m in ((3, 1.0), (True, 1), (2, np.nan)):
        with pytest.raises(ValueError):
            CostMap(CostKind.MATRIX_PRODUCT, d, m)
    cm = CostMap(CostKind.MATRIX_PRODUCT, 4, 3)
    assert cm.p == 12
    assert CostMap(CostKind.ADDITIVE, 3, 3).p == 3


def test_as_parameter_checks_length():
    cm = CostMap(CostKind.ADDITIVE, 3, 3)
    with pytest.raises(ValueError):
        as_parameter(np.zeros(4), cm)
    p = as_parameter([1.0, 2.0, 3.0], cm)
    assert isinstance(p, Parameter)
    wrong = Parameter(np.zeros(5))
    with pytest.raises(ValueError):
        as_parameter(wrong, cm)


def test_cost_all_kinds_match_formulas():
    rng = rng_stream(0, 1)
    u = rng.standard_normal(4)
    t = rng.standard_normal(4)
    np.testing.assert_allclose(cost(CostMap(CostKind.ADDITIVE, 4, 4), t, u), t + u)
    np.testing.assert_allclose(cost(CostMap(CostKind.HADAMARD, 4, 4), t, u), t * u)
    np.testing.assert_allclose(cost(CostMap(CostKind.IDENTITY, 4, 4), t, u), t)
    theta = rng.standard_normal((3, 4))
    np.testing.assert_allclose(
        cost(CostMap(CostKind.MATRIX_PRODUCT, 3, 4), theta.ravel(), u), theta @ u
    )


def test_cost_rejects_wrong_context_shape():
    cm = CostMap(CostKind.ADDITIVE, 3, 3)
    with pytest.raises(ValueError):
        cost(cm, np.zeros(3), np.zeros(4))


def test_cost_batch_matches_scalar_loop():
    # every kind, random data, 40 rows
    rng = rng_stream(0, 2)
    for kind, d, m in [
        (CostKind.ADDITIVE, 5, 5),
        (CostKind.HADAMARD, 5, 5),
        (CostKind.MATRIX_PRODUCT, 4, 6),
        (CostKind.IDENTITY, 3, 2),
    ]:
        cm = CostMap(kind, d, m)
        theta = as_parameter(rng.standard_normal(cm.p), cm)
        ctxs = rng.standard_normal((40, m))
        batch = _cost_batch(cm, theta.values, ctxs)
        single = np.stack([cost(cm, theta, u) for u in ctxs])
        np.testing.assert_allclose(batch, single, atol=1e-14)


def test_jac_t_mean_is_mean_of_transposes():
    rng = rng_stream(0, 5)
    cm = CostMap(CostKind.MATRIX_PRODUCT, 3, 4)
    ctxs = rng.standard_normal((30, 4))
    resid = rng.standard_normal((30, 3))
    # J(u)^T r for the matrix-product map is the row-major outer product r u^T
    want = np.mean([np.outer(r, u).ravel() for u, r in zip(ctxs, resid)], axis=0)
    np.testing.assert_allclose(_jac_t_mean(cm, ctxs, resid), want, atol=1e-12)


@pytest.mark.parametrize(
    "kind,d,m",
    [
        (CostKind.ADDITIVE, 7, 7),
        (CostKind.HADAMARD, 7, 7),
        (CostKind.MATRIX_PRODUCT, 5, 6),
        (CostKind.IDENTITY, 7, 3),
    ],
)
def test_jac_t_mean_keeps_the_bits_of_the_numpy_mean(kind, d, m):
    # _jac_t_mean skips the np.mean wrapper; its bits must stay those of
    # the wrapper's reduction, over an odd row count where summation order
    # shows in the last digit
    rng = rng_stream(0, 8)
    cm = CostMap(kind, d, m)
    ctxs = rng.standard_normal((37, m))
    resid = rng.standard_normal((37, d))
    if kind is CostKind.HADAMARD:
        want = np.mean(ctxs * resid, axis=0)
    elif kind is CostKind.MATRIX_PRODUCT:
        want = (resid.T @ ctxs / 37).ravel()
    else:
        want = np.mean(resid, axis=0)
    assert np.array_equal(_jac_t_mean(cm, ctxs, resid), want)


@pytest.mark.parametrize(
    "kind,d,m",
    [
        (CostKind.ADDITIVE, 3, 3),
        (CostKind.HADAMARD, 3, 3),
        (CostKind.MATRIX_PRODUCT, 3, 4),
        (CostKind.IDENTITY, 3, 2),
    ],
)
def test_canonical_methods_evaluate_one_form(kind, d, m):
    rng = rng_stream(0, 6)
    cm = CostMap(kind, d, m)
    theta = rng.standard_normal(cm.p)
    theta_hat = theta + 0.5 * rng.standard_normal(cm.p)
    ctxs = rng.standard_normal((20, m))
    resid = rng.standard_normal((20, d))
    xs = rng.standard_normal((20, d))
    plain = np.stack([cost(cm, theta, u) for u in ctxs])
    signed = {}
    for sense, sign in ((Sense.MIN, -1.0), (Sense.MAX, 1.0)):
        fp = ForwardProblem(cm, Box.cube(d, -1, 1), sense, base_quad=0.7)
        hcs = signed[sense] = fp._canonical_costs(theta, ctxs)
        np.testing.assert_allclose(hcs, sign * plain, atol=1e-12)

        # h_c is affine in theta, so a unit central difference is exact up to roundoff
        def f(t):
            return np.mean(np.sum(resid * fp._canonical_costs(t, ctxs), axis=1))

        fd = np.array([(f(theta + e) - f(theta - e)) / 2.0 for e in np.eye(cm.p)])
        np.testing.assert_allclose(fp._canonical_adjoint(ctxs, resid), fd, atol=1e-12)

        for lam in (0.0, 0.3):
            want = [h @ x - 0.5 * (0.7 + lam) * (x @ x) for h, x in zip(hcs, xs)]
            np.testing.assert_allclose(fp._canonical_value(hcs, xs, lam), want, atol=1e-12)
        x_star = np.stack([solve_exact(fp, theta, u) for u in ctxs])
        x_hat = np.stack([solve_exact(fp, theta_hat, u) for u in ctxs])
        gap = fp._canonical_value(hcs, x_star) - fp._canonical_value(hcs, x_hat)
        assert regret(fp, theta_hat, theta, ctxs) == pytest.approx(gap.mean(), abs=1e-12)
    np.testing.assert_array_equal(signed[Sense.MAX], -signed[Sense.MIN])


def test_only_model_evaluates_the_canonical_form():
    """The sense fold and the cost-map adjoint are read in model.py alone."""
    private = {"canonical_sign", "_cost_batch", "_jac_t_mean"}
    offenders = []
    for path in sorted(Path(fyinv.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                offenders.append(f"{path.name}:{node.lineno} reads {node.attr}")
            elif isinstance(node, ast.ImportFrom):
                offenders += [
                    f"{path.name}:{node.lineno} imports {a.name}"
                    for a in node.names
                    if a.name in private
                ]
    assert offenders == []


def test_region_validation():
    with pytest.raises(ValueError):
        Box([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        Box([2.0], [1.0])
    with pytest.raises(ValueError):
        Box([], [])
    # project() takes its region's checked parameters: the per-region
    # functions it replaced reflected v at radius -1 and divided by cap 0
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            Ball(3, bad)
        with pytest.raises(ValueError):
            NonNegL1Cap(3, bad)
    # a dimensionless ball or cap region projected a point of any length
    for bad in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="dim"):
            Ball(bad, 1.0)
        with pytest.raises(ValueError, match="dim"):
            NonNegL1Cap(bad, 1.0)


def test_regions_reject_non_finite_bounds():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Box(np.array([bad, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            Box(np.array([0.0, 0.0]), np.array([1.0, bad]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            Ball(3, bad)
        with pytest.raises(ValueError):
            NonNegL1Cap(3, bad)


def test_region_contains():
    box = Box.cube(3, -1, 1)
    assert region_contains(box, np.zeros(3))
    assert not region_contains(box, np.array([0.0, 0.0, 1.5]))
    ball = Ball(3, 2.0)
    assert region_contains(ball, np.array([1.0, 1.0, 1.0]))
    assert not region_contains(ball, np.array([2.0, 2.0, 0.0]))
    capr = NonNegL1Cap(3, 1.0)
    assert region_contains(capr, np.array([0.25, 0.25, 0.25]))
    assert not region_contains(capr, np.array([-0.1, 0.0, 0.0]))
    assert not region_contains(capr, np.array([0.9, 0.9, 0.0]))
    g = grid_graph(6, 7)
    fpr = FlowPolytope(g)
    path = np.zeros(7)
    # rightward edges along the top row then down the last column
    assert region_contains(fpr, solve_exact(
        ForwardProblem(CostMap(CostKind.IDENTITY, 7, 1), fpr, Sense.MIN),
        np.ones(7), np.zeros(1),
    ))
    assert not region_contains(fpr, path)  # all-zero flow ships nothing
    # one point of the region's length: [0.5] used to broadcast against a box
    for region, x in (
        (Box.cube(3, 0, 1), [0.5]),
        (Box.cube(3, 0, 1), np.full(4, 0.5)),
        (Box.cube(3, 0, 1), np.full((2, 3), 0.5)),
        (Box.cube(3, 0, 1), 0.5),
        (FlowPolytope(grid_graph(6, 7)), np.zeros(6)),
        (FlowPolytope(grid_graph(6, 7)), np.zeros((1, 7))),
        (Ball(2, 1.0), np.zeros((2, 2))),
        (NonNegL1Cap(2, 1.0), np.zeros((2, 2))),
        (Ball(3, 1.0), np.zeros(7)),
        (Ball(3, 1.0), np.zeros(0)),
        (NonNegL1Cap(3, 1.0), np.zeros(2)),
    ):
        with pytest.raises(ValueError):
            region_contains(region, x)


def test_forward_problem_validation_and_canonical_sign():
    cm = CostMap(CostKind.ADDITIVE, 3, 3)
    for region in (Box.cube(4, 0, 1), Ball(4, 1.0), NonNegL1Cap(2, 1.0)):
        with pytest.raises(ValueError, match="dim"):
            ForwardProblem(cm, region, Sense.MIN)
    # NaN curvature used to solve as linear and score NaN regret; inf scored NaN too
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ForwardProblem(cm, Box.cube(3, 0, 1), Sense.MIN, base_quad=bad)
    fp_min = ForwardProblem(cm, Box.cube(3, 0, 1), Sense.MIN)
    fp_max = ForwardProblem(cm, Box.cube(3, 0, 1), Sense.MAX)
    assert fp_min.canonical_sign == -1.0
    assert fp_max.canonical_sign == 1.0
    u = np.array([1.0, -2.0, 0.5])
    t = np.array([0.5, 0.5, 0.5])
    np.testing.assert_allclose(fp_min.canonical_cost(t, u), -(t + u))
    np.testing.assert_allclose(fp_max.canonical_cost(t, u), t + u)


def test_dataset_basics():
    ctxs = np.arange(6.0).reshape(3, 2)
    ys = np.arange(9.0).reshape(3, 3)
    ds = Dataset(ctxs, ys)
    assert len(ds) == 3
    sub = ds.subset([0, 2])
    assert len(sub) == 2
    np.testing.assert_array_equal(sub.decisions, ys[[0, 2]])
    with pytest.raises(ValueError):
        Dataset(ctxs, ys[:2])
    with pytest.raises(ValueError):
        ds.contexts[0, 0] = 5.0
    # every fitter used to fail on zero rows with an unrelated error
    with pytest.raises(ValueError, match="at least one row"):
        Dataset(np.zeros((0, 10)), np.zeros((0, 10)))
    with pytest.raises(ValueError, match="at least one row"):
        ds.subset([])


def test_dataset_rejects_non_finite():
    ctxs = np.arange(6.0).reshape(3, 2)
    ys = np.arange(9.0).reshape(3, 3)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            Dataset(ctxs, np.where(ys == 4.0, bad, ys))
        with pytest.raises(ValueError):
            Dataset(np.where(ctxs == 1.0, bad, ctxs), ys)


def test_uniform_contexts_validation_and_range():
    with pytest.raises(ValueError):
        UniformContexts(1.0, 0.0, 3)
    with pytest.raises(ValueError):
        UniformContexts(0.0, 1.0, 0)
    for dim in (2.5, True, np.nan):
        with pytest.raises(ValueError):
            UniformContexts(0.0, 1.0, dim)
    for low, high in ((np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0), (0.0, np.inf)):
        with pytest.raises(ValueError):
            UniformContexts(low, high, 2)
    law = UniformContexts(-1.0, 1.0, 4)
    draw = law.sample(rng_stream(3), 100)
    assert draw.shape == (100, 4)
    assert draw.min() >= -1.0 and draw.max() <= 1.0


def test_sample_dataset_deterministic():
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 4, 4), Box.cube(4, -1, 1), Sense.MIN)
    law = UniformContexts(-1.0, 1.0, 4)
    t = np.full(4, 0.5)
    a = sample_dataset(fp, t, 25, NoisyDecision(1.0), law, seed=9)
    b = sample_dataset(fp, t, 25, NoisyDecision(1.0), law, seed=9)
    np.testing.assert_array_equal(a.contexts, b.contexts)
    np.testing.assert_array_equal(a.decisions, b.decisions)
    c = sample_dataset(fp, t, 25, NoisyDecision(1.0), law, seed=10)
    assert np.any(c.decisions != a.decisions)


def test_sample_dataset_noiseless_solves_exactly():
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 4, 4), Box.cube(4, -1, 1), Sense.MIN)
    law = UniformContexts(-1.0, 1.0, 4)
    t = np.full(4, 0.5)
    ds = sample_dataset(fp, t, 20, Noiseless(), law, seed=2)
    for u, y in zip(ds.contexts, ds.decisions):
        np.testing.assert_array_equal(y, solve_exact(fp, t, u))


def test_sample_dataset_objective_noise_stays_feasible():
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 4, 4), Box.cube(4, -1, 1), Sense.MIN)
    law = UniformContexts(-1.0, 1.0, 4)
    ds = sample_dataset(fp, np.full(4, 0.5), 30, NoisyObjective(2.0), law, seed=4)
    for y in ds.decisions:
        assert region_contains(fp.region, y)
        # linear objective over a box lands on vertices or midpoint ties
        assert np.all(np.isin(y, [-1.0, 0.0, 1.0]))


def test_sample_dataset_decision_noise_can_leave_region():
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 4, 4), Box.cube(4, -1, 1), Sense.MIN)
    law = UniformContexts(-1.0, 1.0, 4)
    ds = sample_dataset(fp, np.full(4, 0.5), 50, NoisyDecision(2.0), law, seed=5)
    assert any(not region_contains(fp.region, y) for y in ds.decisions)


def test_noise_models_reject_bad_sigma():
    # a NaN or infinite sigma used to make decisions from NaN or inf costs
    for model in (NoisyDecision, NoisyObjective):
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                model(bad)
        assert model(0.0).sigma == 0.0
        assert model(np.float64(0.5)).sigma == 0.5


def test_sample_dataset_validation():
    fp = ForwardProblem(CostMap(CostKind.ADDITIVE, 4, 4), Box.cube(4, -1, 1), Sense.MIN)
    with pytest.raises(ValueError):
        sample_dataset(fp, np.zeros(4), 0, Noiseless(), UniformContexts(-1, 1, 4), 0)
    for n in (2.5, True, np.nan):
        with pytest.raises(ValueError):
            sample_dataset(fp, np.zeros(4), n, Noiseless(), UniformContexts(-1, 1, 4), 0)
    with pytest.raises(ValueError):
        sample_dataset(fp, np.zeros(4), 5, Noiseless(), UniformContexts(-1, 1, 3), 0)


def test_rng_stream_reproducible_and_key_separated():
    a = rng_stream(7, 1).standard_normal(5)
    b = rng_stream(7, 1).standard_normal(5)
    c = rng_stream(7, 2).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert np.all(a != c)


def test_sample_region_helpers_feasible():
    rng = rng_stream(0, 6)
    for region, d in [(Box.cube(4, -2, 1), 4), (Ball(5, 3.0), 5), (NonNegL1Cap(6, 2.0), 6)]:
        for _ in range(50):
            assert region_contains(region, sample_region(region, d, rng))


def test_public_api_names_resolve_once():
    import fyinv

    assert len(fyinv.__all__) == len(set(fyinv.__all__))
    for name in fyinv.__all__:
        assert hasattr(fyinv, name), name
