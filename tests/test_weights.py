"""Weight policies: values, positivity, unit modulus, route equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmean import (
    StoppingRule,
    boltzmann_policy,
    constant_policy,
    cylinder_function,
    density_policy,
    halton_source,
    normal_quantiles,
    oscillatory_policy,
    product_regularized_policy,
    pullback_source,
    quadratic_action,
    run,
)
from diracmean.errors import NegativeDensity, WeightOverflow
from diracmean.oracle import normalized_expectation
from diracmean.weights import _phase

F_X1 = cylinder_function(1, lambda x: x[:, 0], "x1")
# The line cut at +-8, where a unit-scale Gaussian has no mass left to see.
BOX_8 = ((-8.0, 8.0),)
F_X1SQ = cylinder_function(1, lambda x: x[:, 0] ** 2, "x1^2")
FULL = lambda n: StoppingRule(min_samples=n)  # noqa: E731  (run the whole budget)


def test_constant_policy_is_one_everywhere():
    pol = constant_policy()
    pts = halton_source(0).block(0, 7, 2)
    assert np.array_equal(pol.weights(pts), np.ones(7))
    assert pol.weights(np.array([[0.3, 0.4]]))[0] == 1.0


def test_constant_policy_denominator_counts_points():
    report = run(halton_source(0), constant_policy(), F_X1, 2000, FULL(2000))
    assert report.trace["denominator"][-1] == 2000 + 0j


def test_constant_policy_uniform_coordinate_mean():
    report = run(halton_source(0), constant_policy(), F_X1, 10**4, FULL(10**4))
    assert abs(report.final_estimate - 0.5) <= 1e-3


def test_density_policy_matches_closed_form_ratio():
    # weights 1 + x, integrand x on [0,1]: (5/6) / (3/2) = 5/9
    pol = density_policy(lambda x: 1.0 + x[:, 0], 1)
    report = run(halton_source(0), pol, F_X1, 10**5, FULL(10**5))
    assert abs(report.final_estimate - 5.0 / 9.0) <= 1e-3
    oracle = normalized_expectation(lambda x: x[:, 0], lambda x: 1.0 + x[:, 0], ((0.0, 1.0),))[0]
    assert abs(oracle - 5.0 / 9.0) <= 1e-10


def test_density_policy_gauge_invariance_of_constant_scaling():
    flat = density_policy(lambda x: np.full(len(x), 3.7), 1)
    ref = run(halton_source(0), constant_policy(), F_X1, 5000, FULL(5000))
    scaled = run(halton_source(0), flat, F_X1, 5000, FULL(5000))
    assert abs(scaled.final_estimate - ref.final_estimate) <= 1e-12 * abs(ref.final_estimate)


def test_density_policy_derivative_of_increasing_map():
    # density 1 + x is the derivative of x + x^2/2, bounded below by 1
    pol = density_policy(lambda x: 1.0 + x[:, 0], 1)
    report = run(halton_source(0), pol, F_X1, 10**5, FULL(10**5))
    assert abs(report.final_estimate - 5.0 / 9.0) <= 1e-3


def test_density_policy_rejects_negative_values():
    pol = density_policy(lambda x: x[:, 0] - 0.5, 1)
    with pytest.raises(NegativeDensity):
        run(halton_source(0), pol, F_X1, 1000)


def test_boltzmann_zero_action_equals_constant_policy():
    zero = quadratic_action([[0.0]])
    a = run(halton_source(0), boltzmann_policy(zero), F_X1, 4000, FULL(4000))
    b = run(halton_source(0), constant_policy(), F_X1, 4000, FULL(4000))
    assert a.final_estimate == b.final_estimate


def test_boltzmann_second_moment_on_normal_pullback():
    # points ~ N(0,1), extra weight exp(-x^2/2): samples of density
    # exp(-x^2); its second moment is 1/2 by the quadrature oracle
    src = pullback_source(halton_source(1), normal_quantiles())
    pol = boltzmann_policy(quadratic_action([[1.0]]))
    report = run(src, pol, F_X1SQ, 10**5, FULL(10**5))
    oracle = normalized_expectation(
        lambda x: x[:, 0] ** 2, lambda x: np.exp(-x[:, 0] ** 2), BOX_8
    )[0]
    assert abs(oracle - 0.5) <= 1e-10
    assert abs(report.final_estimate - oracle) <= 2e-3


def test_boltzmann_underflow_is_silent_overflow_raises():
    huge = quadratic_action([[0.0]], constant=1e4)
    pol = boltzmann_policy(huge)
    assert pol.weights(np.array([[0.5]]))[0] == 0.0
    low = quadratic_action([[0.0]], constant=-701.0)
    with pytest.raises(WeightOverflow):
        boltzmann_policy(low).weights(np.array([[0.5]]))


def test_oscillatory_zero_action_gives_unit_weights():
    pol = oscillatory_policy(quadratic_action([[0.0]]))
    pts = halton_source(0).block(0, 5, 1)
    assert np.array_equal(pol.weights(pts), np.ones(5, dtype=complex))


def test_oscillatory_constant_pi_phase_accumulates_linearly():
    pol = oscillatory_policy(quadratic_action([[0.0]], constant=math.pi))
    pts = halton_source(0).block(0, 100, 1)
    w = pol.weights(pts)
    assert np.allclose(w, -1.0)
    partial = np.cumsum(w)
    assert abs(abs(partial[-1]) - 100) <= 1e-9  # no cancellation


def test_oscillatory_alternating_index_phase_cancels():
    pol = oscillatory_policy(quadratic_action([[0.0]]), index_phase=math.pi)
    pts = halton_source(0).block(0, 1000, 1)
    w = pol.weights(pts, start_index=0)
    sums = np.cumsum(w)
    # denominator magnitude oscillates in {1, 0} up to phase rounding
    assert abs(sums[-1]) <= 1e-10          # even count: cancelled
    assert abs(abs(sums[-2]) - 1.0) <= 1e-10  # odd count: single term
    report = run(halton_source(0), pol, F_X1, 10**4)
    assert report.stop_reason == "degenerate"


def test_oscillatory_unit_modulus_even_for_huge_actions():
    scale = quadratic_action([[2e8]])  # S = 1e8 x^2
    pol = oscillatory_policy(scale)
    pts = halton_source(1).block(0, 1000, 1)
    w = pol.weights(pts)
    assert np.max(np.abs(np.abs(w) - 1.0)) <= 1e-15


def _bits(z):
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


FINITE_PHASES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))).filter(
        math.isfinite),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.pi, -math.pi, 1e22, -1e22]),
)


@settings(max_examples=200, deadline=None)
@given(phases=st.lists(FINITE_PHASES, min_size=1, max_size=40),
       scale=st.sampled_from([1.0, 1e6, 1e300]))
def test_phase_kernel_equals_complex_exp_bit_for_bit(phases, scale):
    with np.errstate(over="ignore"):
        s = np.array(phases) * scale
    s = s[np.isfinite(s)]
    assert np.array_equal(_bits(_phase(s)), _bits(np.exp(-1j * s)))


def test_phase_policies_equal_complex_exp_bit_for_bit():
    act = quadratic_action([[1.0, 0.5], [0.5, 2.0]], linear=[0.3, -1e6])
    reg = normal_quantiles([1.0, 2.0])
    pts = halton_source(3).block(0, 5000, 2)
    s = act(pts) + math.pi * np.arange(7, 5007)
    assert np.array_equal(_bits(oscillatory_policy(act, math.pi).weights(pts, start_index=7)),
                          _bits(np.exp(-1j * s)))
    assert np.array_equal(
        _bits(product_regularized_policy(reg, act).weights(pts, start_index=7)),
        _bits(reg.density(pts) * np.exp(-1j * act(pts))))


def test_non_finite_phase_warns_and_gives_a_non_finite_weight():
    with pytest.warns(RuntimeWarning):
        w = _phase(np.array([0.5, np.inf, np.nan]))
    assert np.isfinite(w[0]) and not np.isfinite(w[1:]).any()


def test_product_regularized_identity_case_is_constant():
    reg = normal_quantiles([1e6])  # nearly flat on [0,1]
    zero = quadratic_action([[0.0]])
    pol = product_regularized_policy(reg, zero)
    pts = halton_source(0).block(0, 8, 1)
    assert np.allclose(pol.weights(pts), 1.0, atol=1e-9)


def test_product_regularized_complex_gaussian_second_moment():
    # 1D: xi = exp(-x^2/2), S = x^2/2 on a wide box; target 1/(1+i)
    from diracmean.seq import box_quantiles

    reg = normal_quantiles([1.0])
    act = quadratic_action([[1.0]])
    src = pullback_source(halton_source(1), box_quantiles(8.0))
    pol = product_regularized_policy(reg, act)
    report = run(src, pol, F_X1SQ, 10**5, FULL(10**5))
    target = normalized_expectation(
        lambda x: x[:, 0] ** 2,
        lambda x: np.exp(-x[:, 0] ** 2 * (1 + 1j) / 2.0),
        BOX_8,
    )[0]
    assert abs(target - (0.5 - 0.5j)) <= 1e-8
    assert abs(report.final_estimate - target) <= 5e-3


def test_product_regularized_normalization_ignores_action():
    from diracmean.seq import box_quantiles

    reg = normal_quantiles([1.0])
    act = quadratic_action([[3.0]], constant=0.7)
    src = pullback_source(halton_source(1), box_quantiles(8.0))
    pol = product_regularized_policy(reg, act)
    one = cylinder_function(0, 1.0, "one")
    report = run(src, pol, one, 2000)
    assert report.final_estimate == 1.0 + 0.0j


def test_product_regularized_rejects_negative_regularizer():
    class Spiky:
        widths = (1.0,)

        def density(self, x):
            return x[:, 0] - 0.5

    pol = product_regularized_policy(Spiky(), quadratic_action([[0.0]]))
    with pytest.raises(NegativeDensity):
        pol.weights(halton_source(0).block(0, 8, 1))


def test_positive_policies_keep_estimates_in_range():
    sources = [halton_source(0), pullback_source(halton_source(1), normal_quantiles())]
    policies = [
        constant_policy(),
        density_policy(lambda x: 1.0 / (1.0 + x[:, 0] ** 2), 1),
        boltzmann_policy(quadratic_action([[1.0]])),
    ]
    func = cylinder_function(1, lambda x: np.cos(3 * x[:, 0]), "cos3")
    for src in sources:
        for pol in policies:
            pts = src.block(0, 4000, 1)
            vals = func.eval_block(pts)
            report = run(src, pol, func, 4000, FULL(4000))
            est = report.final_estimate
            assert est.imag == 0.0
            assert vals.min() - 1e-12 <= est.real <= vals.max() + 1e-12


def test_fresnel_route_equivalence_on_gaussian():
    # weight-borne (box points, xi e^{-iS} weights) vs pullback
    # (xi-quantile points, e^{-iS} weights) on the second moment
    from diracmean.action import oscillatory_mean

    base = halton_source(1)
    act = quadratic_action([[1.0]])
    reg = normal_quantiles([1.0])
    n = 10**6
    a = oscillatory_mean(base, act, reg, F_X1SQ, n, FULL(n), route="pullback",
                         skip_certification=True)
    b = oscillatory_mean(base, act, reg, F_X1SQ, n, FULL(n), route="weight-borne",
                         skip_certification=True)
    assert abs(a.final_estimate - b.final_estimate) <= 5e-3
