"""Randomized invariants: purity, truncation, gauge, summation drift."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmean import (
    MeanAccumulator,
    boltzmann_policy,
    box_quantiles,
    convergent_source,
    gaussian_regularizer,
    halton_source,
    merge,
    normal_quantiles,
    oscillatory_policy,
    product_regularized_policy,
    pseudorandom_source,
    quadratic_action,
    uniform_quantiles,
    weyl_source,
)
from diracmean.registry import FUNCTION_NAMES, build_function

SOURCES = {
    "halton": lambda: halton_source(2),
    "weyl": lambda: weyl_source(index_offset=1),
    "pseudorandom": lambda: pseudorandom_source(99),
    "convergent": lambda: convergent_source(0.4, 0.7, 0.3),
}

finite_complex = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)
finite_real = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(SOURCES)),
    n=st.integers(min_value=0, max_value=10**6),
    d_small=st.integers(min_value=1, max_value=4),
    d_extra=st.integers(min_value=0, max_value=4),
)
def test_truncation_consistency(kind, n, d_small, d_extra):
    src = SOURCES[kind]()
    wide = src.point_at(n, d_small + d_extra)
    narrow = src.point_at(n, d_small)
    assert wide.coords[:d_small] == narrow.coords


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(SOURCES)), n=st.integers(min_value=0, max_value=10**5))
def test_point_at_is_pure(kind, n):
    src = SOURCES[kind]()
    assert src.point_at(n, 3).coords == src.point_at(n, 3).coords


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["uniform", "normal", "box"]),
    u=st.floats(min_value=0.001, max_value=0.998),
    step=st.floats(min_value=1e-6, max_value=0.001),
    k=st.integers(min_value=0, max_value=3),
)
def test_quantiles_are_monotone(family, u, step, k):
    fam = {
        "uniform": uniform_quantiles,
        "normal": lambda: normal_quantiles([0.5, 2.0]),
        "box": lambda: box_quantiles(8.0),
    }[family]()
    assert fam.quantile(k, u) <= fam.quantile(k, u + step)


@settings(max_examples=30, deadline=None)
@given(
    terms=st.lists(st.tuples(finite_complex, finite_complex), min_size=1, max_size=40),
    scale=finite_complex,
)
def test_gauge_invariance_of_the_accumulator(terms, scale):
    plain = MeanAccumulator()
    scaled = MeanAccumulator()
    for w, v in terms:
        plain.add(w, v)
        scaled.add(scale * w, v)
    e1 = plain.estimate(1e-12)
    e2 = scaled.estimate(1e-12)
    from diracmean import DEGENERATE

    if e1 is DEGENERATE or e2 is DEGENERATE:
        return  # near-cancellation: conditioning, not gauge, decides
    assert abs(e1 - e2) <= 1e-9 * max(abs(e1), 1e-30)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(finite_real, min_size=2, max_size=60),
    split=st.integers(min_value=1, max_value=59),
)
def test_merge_agrees_with_sequential(values, split):
    split = min(split, len(values) - 1)
    whole = MeanAccumulator()
    left = MeanAccumulator()
    right = MeanAccumulator()
    for i, v in enumerate(values):
        whole.add(1.0, v)
        (left if i < split else right).add(1.0, v)
    merged = merge(left, right)
    assert merged.count == whole.count
    assert merged.denominator == whole.denominator
    ref = whole.estimate()
    assert abs(merged.estimate() - ref) <= 1e-12 * max(1.0, abs(ref))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_prefix_permutation_invariance(data):
    n = data.draw(st.integers(min_value=2, max_value=50))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    w = np.exp(1j * rng.normal(size=n))
    v = rng.normal(size=n)
    forward = MeanAccumulator()
    backward = MeanAccumulator()
    for i in range(n):
        forward.add(w[i], v[i])
        backward.add(w[n - 1 - i], v[n - 1 - i])
    f, b = forward.estimate(1e-12), backward.estimate(1e-12)
    from diracmean import DEGENERATE

    if f is DEGENERATE or b is DEGENERATE:
        return
    assert abs(f - b) <= 1e-12 * max(abs(f), 1e-12)


@settings(max_examples=120, deadline=None)
@given(
    rank=st.integers(min_value=1, max_value=16),
    diagonal=st.booleans(),
    with_linear=st.booleans(),
    with_constant=st.booleans(),
    m=st.integers(min_value=1, max_value=300),
    cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_action_and_weights_are_row_pure(rank, diagonal, with_linear, with_constant, m, cut, seed):
    """A point's action and weight are bitwise independent of the block and
    of its memory layout, and evaluating them never writes into the block."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(rank, rank))
    a = np.diag(rng.uniform(0.5, 4.0, rank)) if diagonal else g + g.T
    b = rng.normal(size=rank) if with_linear else None
    c0 = float(rng.normal()) if with_constant else 0.0
    act = quadratic_action(a, b, c0)
    x = rng.normal(size=(m, rank + 2))
    xf = np.asfortranarray(x)
    before = x.copy()
    x.flags.writeable = False
    xf.flags.writeable = False
    s = act(x)
    lin = np.zeros(rank) if b is None else b
    ref = 0.5 * np.sum((x[:, :rank] @ a) * x[:, :rank], axis=1) + x[:, :rank] @ lin + c0
    scale = 0.5 * np.sum((np.abs(x[:, :rank]) @ np.abs(a)) * np.abs(x[:, :rank]), axis=1)
    scale += np.abs(x[:, :rank]) @ np.abs(lin) + abs(c0)
    assert np.all(np.abs(s - ref) <= 64 * np.finfo(float).eps * scale)
    lo, hi = sorted(int(f * m) for f in cut)
    lo = min(lo, m - 1)
    assert np.array_equal(act(x[lo:hi]), s[lo:hi])
    assert np.array_equal(act(x[lo : lo + 1]), s[lo : lo + 1])
    reg = gaussian_regularizer(rng.uniform(0.5, 3.0, rank))
    policies = (
        boltzmann_policy(act),
        oscillatory_policy(act),
        product_regularized_policy(reg, act),
    )
    for pol in policies:
        assert pol.weight(x[lo], lo) == pol.weights(x)[lo]
    for evaluate in (act, reg.value, *(pol.weights for pol in policies)):
        assert np.array_equal(evaluate(xf), evaluate(x))
        assert np.array_equal(evaluate(xf[lo:hi]), evaluate(x[lo:hi]))
    assert np.array_equal(x, before) and np.array_equal(xf, before)


REGISTRY_SPECS = (
    [{"name": "coordinate", "index": k} for k in (1, 2, 5)]
    + [{"name": "coordinate-product", "rank": r} for r in range(1, 17)]
    + [
        {"name": "polynomial", "coeffs": [0.5, -1.0, 0.25, 2.0], "index": 2},
        {"name": "cosine", "index": 3, "frequency": 2.5},
        {"name": "gaussian", "widths": [1.0]},
        {"name": "gaussian", "widths": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]},
        {"name": "quadratic-form", "matrix": [[2.0, 0.5, 0.0], [0.5, 1.0, -0.25], [0.0, -0.25, 3.0]],
         "linear": [0.1, 0.0, -0.3], "constant": 1.5},
    ]
)


def test_registry_specs_cover_every_function():
    assert {spec["name"] for spec in REGISTRY_SPECS} == set(FUNCTION_NAMES)


@pytest.mark.parametrize("spec", REGISTRY_SPECS,
                         ids=[f"{spec['name']}-{i}" for i, spec in enumerate(REGISTRY_SPECS)])
@settings(max_examples=6, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_registry_functions_are_row_pure_in_both_layouts(spec, m, seed):
    """Registry values do not depend on the block's layout or on its other rows."""
    func = build_function(spec)
    x = np.random.default_rng(seed).normal(size=(m, 18))
    xf = np.asfortranarray(x)
    values = func.eval_block(xf)
    assert np.array_equal(func.eval_block(x), values)
    for n in {0, m // 2, m - 1}:
        assert np.array_equal(func.eval_block(x[n : n + 1]), values[n : n + 1])
        assert func(x[n]) == values[n]
