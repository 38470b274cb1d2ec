"""Problem data for inverse optimization.

A forward problem picks the decision maximizing ``h(theta; u)^T x`` over a
feasible region, where the cost map h is linear in the unknown parameter
theta and depends on an observed context u.  Minimization problems are folded
into the same canonical max form by negating the cost, and a quadratic term
``-(base_quad/2)||x||^2`` in the canonical objective covers forward problems
with a fixed curvature term.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from .graphs import Graph, _is_count


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from a master seed and an integer key path.

    Streams with different keys are statistically independent, so replication
    r of an experiment can use ``rng_stream(seed, r)`` without coordinating
    with its siblings.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class Parameter:
    """Read-only flat parameter vector; its entries must be finite.

    A MATRIX_PRODUCT parameter Theta (d x m) is stored as ``Theta.ravel()``,
    row-major, so ``values.reshape(d, m)`` gives Theta back.  Only the cost
    map's evaluation (``_cost_batch``, ``_jac_t_mean``) applies that layout.
    """

    values: np.ndarray

    def __post_init__(self):
        v = _frozen(np.ravel(self.values))
        object.__setattr__(self, "values", v)
        if not np.isfinite(v).all():
            raise ValueError("parameter values must be finite")

    @property
    def p(self) -> int:
        return self.values.size


# ---------------------------------------------------------------------------
# cost maps


class CostKind(enum.Enum):
    ADDITIVE = "additive"          # h = theta + u, requires d == m
    HADAMARD = "hadamard"          # h = theta * u elementwise, d == m
    MATRIX_PRODUCT = "matrix_product"  # h = Theta @ u, p = d * m
    IDENTITY = "identity"          # h = theta, context ignored


@dataclass(frozen=True)
class CostMap:
    """Linear-in-theta map (theta, u) -> cost vector h of length d."""

    kind: CostKind
    d: int
    m: int

    def __post_init__(self):
        if not (_is_count(self.d) and _is_count(self.m)):
            raise ValueError("dimensions must be positive integers")
        if self.kind in (CostKind.ADDITIVE, CostKind.HADAMARD) and self.d != self.m:
            raise ValueError(f"{self.kind.value} cost map needs d == m")

    @property
    def p(self) -> int:
        return self.d * self.m if self.kind is CostKind.MATRIX_PRODUCT else self.d


def as_parameter(theta, cm: CostMap) -> Parameter:
    """A Parameter or an array-like as a Parameter with the cost map's p entries."""
    v = theta.values if isinstance(theta, Parameter) else np.asarray(theta, dtype=float)
    if v.size != cm.p:
        raise ValueError(f"parameter has p={v.size}, cost map expects {cm.p}")
    return theta if isinstance(theta, Parameter) else Parameter(v)


def _check_context(cm: CostMap, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (cm.m,):
        raise ValueError(f"context must have shape ({cm.m},)")
    if not np.isfinite(u).all():
        raise ValueError("context must be finite")
    return u


def _check_contexts(cm: CostMap, ctxs) -> np.ndarray:
    """A stack of contexts as an (n, m) array; a single context becomes one row."""
    c = np.atleast_2d(np.asarray(ctxs, dtype=float))
    if c.ndim != 2 or c.shape[1] != cm.m or c.shape[0] == 0:
        raise ValueError(f"contexts must have shape (n, {cm.m}) with n >= 1")
    if not np.isfinite(c).all():
        raise ValueError("contexts must be finite")
    return c


def cost(cm: CostMap, theta, u) -> np.ndarray:
    """Evaluate h(theta; u)."""
    u = _check_context(cm, u)
    return _cost_batch(cm, as_parameter(theta, cm).values, u[None, :])[0]


def _cost_batch(cm: CostMap, t: np.ndarray, ctxs: np.ndarray) -> np.ndarray:
    """h(t; u_i) for every row of ctxs; returns an (n, d) array.

    ``t`` is checked flat parameter values, laid out as ``Parameter.values``.
    """
    if cm.kind is CostKind.ADDITIVE:
        return ctxs + t
    if cm.kind is CostKind.HADAMARD:
        return ctxs * t
    if cm.kind is CostKind.MATRIX_PRODUCT:
        return ctxs @ t.reshape(cm.d, cm.m).T
    return np.broadcast_to(t, (ctxs.shape[0], cm.d)).copy()


def _jac_t_mean(cm: CostMap, ctxs: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """mean_i J(u_i)^T resid_i over the batch; returns a (p,) vector.

    ``np.add.reduce(x, axis=0) / n`` is the reduction and division that
    ``x.mean(axis=0)`` makes, with the same bits, minus its Python wrapper.
    """
    n = ctxs.shape[0]
    if cm.kind is CostKind.HADAMARD:
        return np.add.reduce(ctxs * resid, axis=0) / n
    if cm.kind is CostKind.MATRIX_PRODUCT:
        return (resid.T @ ctxs / n).ravel()
    return np.add.reduce(resid, axis=0) / n


# ---------------------------------------------------------------------------
# feasible regions


_CONTAINS_TOL = 1e-9  # region_contains' slack on each (in)equality of a region


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {lo <= x <= hi}; its dim is the length of lo."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _frozen(np.ravel(self.lo))
        hi = _frozen(np.ravel(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have equal shape")
        if lo.size == 0:
            raise ValueError("a box needs at least one coordinate")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi")

    @staticmethod
    def cube(d: int, lo: float, hi: float) -> "Box":
        return Box(np.full(d, float(lo)), np.full(d, float(hi)))

    @property
    def dim(self) -> int:
        return self.lo.size

    def _contains(self, x: np.ndarray) -> bool:
        tol = _CONTAINS_TOL
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {x in R^dim : ||x|| <= radius} centered at the origin."""

    dim: int
    radius: float

    def __post_init__(self):
        if not _is_count(self.dim):
            raise ValueError("dim must be an integer >= 1")
        if not 0 < self.radius < np.inf:
            raise ValueError("radius must be positive and finite")

    def _contains(self, x: np.ndarray) -> bool:
        return bool(np.linalg.norm(x) <= self.radius + _CONTAINS_TOL)


@dataclass(frozen=True)
class NonNegL1Cap:
    """Simplex-like region {x in R^dim : x >= 0, sum(x) <= cap}."""

    dim: int
    cap: float

    def __post_init__(self):
        if not _is_count(self.dim):
            raise ValueError("dim must be an integer >= 1")
        if not 0 < self.cap < np.inf:
            raise ValueError("cap must be positive and finite")

    def _contains(self, x: np.ndarray) -> bool:
        tol = _CONTAINS_TOL
        return bool(np.all(x >= -tol) and x.sum() <= self.cap + tol)


@dataclass(frozen=True)
class FlowPolytope:
    """Unit source->sink flows of a graph: {x in [0,1]^E : A x = b}.

    Its dim is the edge count E.  Every ``Graph`` is acyclic, so this is
    exactly the convex hull of the source->sink path indicators: with a
    cycle the flow set would also hold paths plus circulations.
    """

    graph: Graph

    @property
    def dim(self) -> int:
        return self.graph.num_edges

    def _contains(self, x: np.ndarray) -> bool:
        tol = _CONTAINS_TOL
        g = self.graph
        resid = g.incidence @ x - g.supply
        return bool(
            np.all(x >= -tol)
            and np.all(x <= 1.0 + tol)
            and np.max(np.abs(resid)) <= tol
        )


Region = Union[Box, Ball, NonNegL1Cap, FlowPolytope]


def _check_point(region: Region, x) -> np.ndarray:
    """x as one float point of the region, shape ``(region.dim,)``; a scalar,
    a stack of points or a point of another length raises ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (region.dim,):
        raise ValueError(f"a point of this region is 1-D with {region.dim} entries")
    return x


def region_contains(region: Region, x: np.ndarray) -> bool:
    """Membership test of one point, used by validity checks and tests."""
    return region._contains(_check_point(region, x))


# ---------------------------------------------------------------------------
# forward problems


class Sense(enum.Enum):
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class ForwardProblem:
    """Parametric optimization problem observed through its decisions.

    The canonical internal form is always

        max_{x in region}  h_c(theta; u)^T x - (base_quad / 2) ||x||^2

    with h_c = h for Max sense and h_c = -h for Min sense, so downstream
    code never branches on the sense again.  ``_canonical_costs`` (h_c),
    ``_canonical_adjoint`` (J_c^T r) and ``_canonical_value`` (the
    objective, plus an optional extra curvature ``lam``) are the one
    place this form is evaluated.

    Theta is checked once, by the public entry point that receives it
    (``as_parameter(theta, cost_map).values``): non-finite values or a
    wrong size raise ValueError there.  The ``_``-prefixed batch functions
    take that checked flat (p,) array and do arithmetic only.
    """

    cost_map: CostMap
    region: Region
    sense: Sense = Sense.MIN
    base_quad: float = 0.0

    def __post_init__(self):
        if not 0 <= self.base_quad < np.inf:
            raise ValueError("base_quad must be finite and nonnegative")
        if self.region.dim != self.cost_map.d:
            raise ValueError("region dim disagrees with cost map d")

    @property
    def canonical_sign(self) -> float:
        return 1.0 if self.sense is Sense.MAX else -1.0

    def canonical_cost(self, theta, u) -> np.ndarray:
        u = _check_context(self.cost_map, u)
        t = as_parameter(theta, self.cost_map).values
        return self._canonical_costs(t, u[None, :])[0]

    def _canonical_costs(self, t: np.ndarray, ctxs: np.ndarray) -> np.ndarray:
        """h_c(t; u_i) for every row of ctxs from checked flat values t; (n, d)."""
        return self.canonical_sign * _cost_batch(self.cost_map, t, ctxs)

    def _canonical_adjoint(self, ctxs: np.ndarray, resid: np.ndarray) -> np.ndarray:
        """mean_i J_c(u_i)^T resid_i, the theta-gradient of mean_i resid_i . h_c."""
        return self.canonical_sign * _jac_t_mean(self.cost_map, ctxs, resid)

    def _canonical_value(self, hcs: np.ndarray, xs: np.ndarray, lam: float = 0.0) -> np.ndarray:
        """Row-wise hc . x - ((base_quad + lam) / 2) ||x||^2."""
        return np.einsum("ij,ij->i", hcs, xs) - 0.5 * (self.base_quad + lam) * np.einsum(
            "ij,ij->i", xs, xs
        )


# ---------------------------------------------------------------------------
# noise models and datasets


@dataclass(frozen=True)
class Noiseless:
    pass


def _check_sigma(sigma) -> None:
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be finite and >= 0")


@dataclass(frozen=True)
class NoisyDecision:
    """Additive Gaussian noise on the observed decision (may leave the region)."""

    sigma: float = 1.0

    def __post_init__(self):
        _check_sigma(self.sigma)


@dataclass(frozen=True)
class NoisyObjective:
    """Gaussian perturbation of the cost vector, then an exact solve."""

    sigma: float = 1.0

    def __post_init__(self):
        _check_sigma(self.sigma)


NoiseModel = Union[Noiseless, NoisyDecision, NoisyObjective]


@dataclass(frozen=True)
class UniformContexts:
    """Independent Uniform[low, high] coordinates of dimension dim."""

    low: float
    high: float
    dim: int

    def __post_init__(self):
        if not (np.isfinite(self.low) and np.isfinite(self.high)):
            raise ValueError("low and high must be finite")
        if self.low > self.high:
            raise ValueError("low must not exceed high")
        if not _is_count(self.dim):
            raise ValueError("dim must be an integer >= 1")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=(n, self.dim))


@dataclass(frozen=True)
class Dataset:
    """Observed (context, decision) pairs, immutable after construction."""

    contexts: np.ndarray   # (n, m)
    decisions: np.ndarray  # (n, d)

    def __post_init__(self):
        c = _frozen(np.atleast_2d(self.contexts))
        y = _frozen(np.atleast_2d(self.decisions))
        object.__setattr__(self, "contexts", c)
        object.__setattr__(self, "decisions", y)
        if c.shape[0] != y.shape[0]:
            raise ValueError("contexts and decisions disagree on sample count")
        if c.shape[0] == 0:
            raise ValueError("a dataset needs at least one row")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(y))):
            raise ValueError("contexts and decisions must be finite")

    def __len__(self) -> int:
        return self.contexts.shape[0]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.contexts[idx], self.decisions[idx])


def _check_widths(cm: CostMap, ds: Dataset) -> None:
    """Reject a dataset whose context or decision width does not match cm."""
    if ds.contexts.shape[1] != cm.m or ds.decisions.shape[1] != cm.d:
        raise ValueError(
            f"dataset rows must be contexts of width {cm.m} and decisions of width {cm.d}"
        )


def sample_dataset(
    fp: ForwardProblem,
    theta_star,
    n: int,
    noise: NoiseModel,
    contexts: UniformContexts,
    seed: int,
) -> Dataset:
    """Draw contexts, solve the forward problem at theta_star, add noise.

    PARAMETERS
    ----------
    fp : ForwardProblem
    theta_star : Parameter or array
        Ground-truth parameter generating the decisions.
    n : int
        Number of observations.
    noise : Noiseless | NoisyDecision | NoisyObjective
        NoisyDecision perturbs the solved decision and may produce infeasible
        observations; NoisyObjective perturbs the cost vector and re-solves,
        so observations stay extreme points of the region.
    contexts : UniformContexts
        Context sampling law; its dim must match the cost map.
    seed : int
        Master seed.  The same seed reproduces the dataset bitwise.
    """
    from .solvers import _solve_exact_batch  # late import: solvers builds on model

    if not _is_count(n):
        raise ValueError("n must be an integer >= 1")
    cm = fp.cost_map
    if contexts.dim != cm.m:
        raise ValueError(f"context dim {contexts.dim} does not match cost map m={cm.m}")
    theta_star = as_parameter(theta_star, cm)

    rng = rng_stream(seed)
    ctxs = contexts.sample(rng, n)
    hs = _cost_batch(cm, theta_star.values, ctxs)
    if isinstance(noise, NoisyObjective):
        hs = hs + noise.sigma * rng.standard_normal((n, cm.d))
    decisions = _solve_exact_batch(fp, fp.canonical_sign * hs)
    if isinstance(noise, NoisyDecision):
        decisions = decisions + noise.sigma * rng.standard_normal((n, cm.d))
    return Dataset(ctxs, decisions)
