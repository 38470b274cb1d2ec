"""Benchmark family builders and their generators."""

import numpy as np
import pytest

from fyinv import (
    Ball,
    Box,
    CostKind,
    EXAMPLE_KINDS,
    ExampleSpec,
    Noiseless,
    NoisyDecision,
    NonNegL1Cap,
    Sense,
    build_example,
    generate,
    region_contains,
    solve_exact,
)


def test_example_spec_validation():
    with pytest.raises(ValueError):
        ExampleSpec("F")
    for p in (2, float("nan"), 4.0, "4", True):
        with pytest.raises(ValueError):
            ExampleSpec("A", p=p)
    assert ExampleSpec("A").p == 10
    for noise in (None, "noisy_decision"):
        with pytest.raises(ValueError, match="noise"):
            generate("C", 5, noise, 0)


def test_build_example_accepts_lowercase_strings():
    fp, theta, law = build_example("a")
    assert isinstance(fp.region, NonNegL1Cap)
    assert theta.p == 10


def test_family_a_shape():
    fp, theta, law = build_example(ExampleSpec("A", p=6))
    assert isinstance(fp.region, NonNegL1Cap) and fp.region.cap == 3.0
    assert fp.cost_map.kind is CostKind.ADDITIVE
    assert fp.sense is Sense.MIN and fp.base_quad == 0.0
    np.testing.assert_array_equal(theta.values, np.full(6, 0.5))
    assert (law.low, law.high, law.dim) == (-1.0, 1.0, 6)


def test_family_b_shape():
    fp, theta, law = build_example(ExampleSpec("B", p=7))
    assert isinstance(fp.region, Box)
    np.testing.assert_array_equal(fp.region.lo, -np.ones(7))
    np.testing.assert_array_equal(fp.region.hi, np.ones(7))
    assert fp.cost_map.kind is CostKind.HADAMARD
    # sign-only identifiability: the truth mixes signs and magnitudes
    np.testing.assert_array_equal(theta.values, [0.5, -0.5, -0.5, -0.5, -0.5, 0.5, 1.0])
    assert (theta.values > 0).any() and (theta.values < 0).any()
    _, theta10, _ = build_example("B")
    assert theta10.values.sum() != 0.0


def test_family_c_shape():
    fp, theta, law = build_example(ExampleSpec("C", p=5))
    assert isinstance(fp.region, Box)
    assert fp.cost_map.kind is CostKind.ADDITIVE and fp.sense is Sense.MIN
    assert (law.low, law.high) == (-1.0, 1.0)


def test_family_d_shape():
    fp, theta, law = build_example(ExampleSpec("D", p=5))
    assert isinstance(fp.region, Box)
    np.testing.assert_array_equal(fp.region.lo, np.zeros(5))
    np.testing.assert_array_equal(fp.region.hi, np.ones(5))
    assert fp.sense is Sense.MAX
    assert fp.base_quad == 2.0
    assert (law.low, law.high) == (0.0, 2.0)


def test_family_e_shape():
    fp, theta, law = build_example(ExampleSpec("E", p=5))
    assert isinstance(fp.region, Ball) and fp.region.radius == 3.0
    assert fp.sense is Sense.MAX and fp.base_quad == 0.0
    assert (law.low, law.high) == (0.0, 2.0)


def test_generate_deterministic_and_feasible():
    for kind in EXAMPLE_KINDS:
        spec = ExampleSpec(kind, p=4)
        a = generate(spec, 25, Noiseless(), seed=9)
        b = generate(spec, 25, Noiseless(), seed=9)
        np.testing.assert_array_equal(a.contexts, b.contexts)
        np.testing.assert_array_equal(a.decisions, b.decisions)
        fp, theta_star, law = build_example(spec)
        for i in range(25):
            assert region_contains(fp.region, a.decisions[i])
            np.testing.assert_array_equal(
                a.decisions[i], solve_exact(fp, theta_star, a.contexts[i])
            )
        assert a.contexts.min() >= law.low and a.contexts.max() <= law.high


def test_generate_seeds_differ():
    a = generate(ExampleSpec("C", p=4), 25, Noiseless(), seed=1)
    b = generate(ExampleSpec("C", p=4), 25, Noiseless(), seed=2)
    assert not np.array_equal(a.contexts, b.contexts)


def test_generate_noise_moves_decisions():
    spec = ExampleSpec("C", p=4)
    clean = generate(spec, 30, Noiseless(), seed=3)
    noisy = generate(spec, 30, NoisyDecision(0.5), seed=3)
    np.testing.assert_array_equal(clean.contexts, noisy.contexts)
    assert not np.array_equal(clean.decisions, noisy.decisions)
