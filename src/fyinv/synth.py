"""The five benchmark problem families and their data generators.

Each family fixes a cost map, a feasible region, a ground-truth parameter,
and a context law.  Families whose textbook statement is a minimization with
a negated or curved objective are stored directly in the equivalent
canonical max form:

    A  min (theta+u)^T x         over {x >= 0, sum x <= 3},   u ~ U[-1,1]^p
    B  min (theta*u)^T x         over [-1,1]^p,               u ~ U[-1,1]^p
    C  min (theta+u)^T x         over [-1,1]^p,               u ~ U[-1,1]^p
    D  min x^T x - (theta+u)^T x over [0,1]^p
       == max (theta+u)^T x - ||x||^2,  base_quad 2,          u ~ U[0,2]^p
    E  min -(theta+u)^T x == max (theta+u)^T x over ||x|| <= 3, u ~ U[0,2]^p

B is deliberately non-identifiable: only the signs of theta matter, so its
ground truth mixes magnitudes and keeps a nonzero coordinate sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import (
    Ball,
    Box,
    CostKind,
    CostMap,
    Dataset,
    ForwardProblem,
    NoiseModel,
    NoisyDecision,
    NonNegL1Cap,
    Parameter,
    Sense,
    UniformContexts,
    _is_count,
    _sample_costs,
    as_parameter,
    rng_stream,
)
from .solvers import _solve_exact_batch

EXAMPLE_KINDS = ("A", "B", "C", "D", "E")


@dataclass(frozen=True)
class ExampleSpec:
    kind: str
    p: int = 10

    def __post_init__(self):
        if self.kind not in EXAMPLE_KINDS:
            raise ValueError(f"kind must be one of {EXAMPLE_KINDS}")
        if not _is_count(self.p, 3):
            raise ValueError("examples need an integer p >= 3")


def _coerce(spec: Union[str, ExampleSpec]) -> ExampleSpec:
    if isinstance(spec, ExampleSpec):
        return spec
    return ExampleSpec(str(spec).upper())


def build_example(
    spec: Union[str, ExampleSpec],
) -> tuple[ForwardProblem, Parameter, UniformContexts]:
    """Forward problem, ground-truth parameter, and context law of a family."""
    spec = _coerce(spec)
    p = spec.p
    additive = CostMap(CostKind.ADDITIVE, p, p)
    half = np.full(p, 0.5)

    if spec.kind == "A":
        fp = ForwardProblem(additive, NonNegL1Cap(p, 3.0), Sense.MIN)
        return fp, Parameter(half), UniformContexts(-1.0, 1.0, p)
    if spec.kind == "B":
        theta = np.concatenate([[0.5], np.full(p - 3, -0.5), [0.5, 1.0]])
        fp = ForwardProblem(CostMap(CostKind.HADAMARD, p, p), Box.cube(p, -1, 1), Sense.MIN)
        return fp, Parameter(theta), UniformContexts(-1.0, 1.0, p)
    if spec.kind == "C":
        fp = ForwardProblem(additive, Box.cube(p, -1, 1), Sense.MIN)
        return fp, Parameter(half), UniformContexts(-1.0, 1.0, p)
    if spec.kind == "D":
        fp = ForwardProblem(additive, Box.cube(p, 0, 1), Sense.MAX, base_quad=2.0)
        return fp, Parameter(half), UniformContexts(0.0, 2.0, p)
    fp = ForwardProblem(additive, Ball(p, 3.0), Sense.MAX)
    return fp, Parameter(half), UniformContexts(0.0, 2.0, p)


def sample_dataset(
    fp: ForwardProblem,
    theta_star,
    n: int,
    noise: NoiseModel,
    contexts: UniformContexts,
    seed: int,
) -> Dataset:
    """Draw n contexts from the law ``contexts`` (whose dim must match the
    cost map), solve the forward problem at the ground truth theta_star (a
    Parameter or array), and add noise.

    NoisyDecision perturbs the solved decision and may produce infeasible
    observations; NoisyObjective perturbs the cost vector and re-solves, so
    observations stay extreme points of the region.  The same seed
    reproduces the dataset bitwise.
    """
    if not _is_count(n):
        raise ValueError("n must be an integer >= 1")
    if not isinstance(noise, NoiseModel):
        raise ValueError("noise must be Noiseless, NoisyDecision or NoisyObjective")
    cm = fp.cost_map
    if contexts.dim != cm.m:
        raise ValueError(f"context dim {contexts.dim} does not match cost map m={cm.m}")
    theta_star = as_parameter(theta_star, cm)

    rng = rng_stream(seed)
    ctxs = contexts.sample(rng, n)
    decisions = _solve_exact_batch(fp, _sample_costs(fp, theta_star.values, ctxs, noise, rng))
    if isinstance(noise, NoisyDecision):
        decisions = decisions + noise.sigma * rng.standard_normal((n, cm.d))
    return Dataset(ctxs, decisions)


def generate(
    spec: Union[str, ExampleSpec],
    n: int,
    noise: NoiseModel,
    seed: int,
) -> Dataset:
    """Sample a dataset from a benchmark family at its ground truth."""
    fp, theta_star, contexts = build_example(spec)
    return sample_dataset(fp, theta_star, n, noise, contexts, seed)
