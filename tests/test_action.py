"""Quadratic actions, Gaussian regularizers, and oscillatory means."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmean import (
    ActionFunctional,
    StoppingRule,
    boltzmann_policy,
    box_quantiles,
    convergent_source,
    cylinder_function,
    fresnel_limit_scan,
    halton_source,
    normal_quantiles,
    oscillatory_mean,
    oscillatory_policy,
    product_regularized_policy,
    pullback_source,
    quadratic_action,
    run,
)
from diracmean.errors import CertificationError, ValidationError
from diracmean.oracle import complex_gaussian_moment
from diracmean.registry import build_function

F_X1SQ = cylinder_function(1, lambda x: x[:, 0] ** 2, "x1^2")
FULL = lambda n: StoppingRule(min_samples=n)  # noqa: E731


def ev(action, *coords):
    return float(action(np.asarray([coords], dtype=float))[0])


# ---------------------------------------------------------------------------
# actions and regularizers


def test_quadratic_action_hand_values():
    half_square = quadratic_action([[1.0]])
    assert ev(half_square, 2.0) == 2.0
    const = quadratic_action([[0.0]], constant=np.pi)
    assert ev(const, 0.3) == np.pi
    iso2 = quadratic_action(np.eye(2))
    assert ev(iso2, 1.0, 1.0) == 1.0
    with_linear = quadratic_action([[2.0]], [1.0], 0.5)
    assert ev(with_linear, 3.0) == 9.0 + 3.0 + 0.5


def test_linear_only_row_matches_its_closed_form_in_either_layout():
    # Row 1 has a linear term and no quadratic term: S = x1^2 + 3 x2.
    action = quadratic_action([[2.0, 0.0], [0.0, 0.0]], [0.0, 3.0])
    pts = np.random.default_rng(3).normal(size=(64, 3))
    want = pts[:, 0] ** 2 + 3.0 * pts[:, 1]
    for block in (np.ascontiguousarray(pts), np.asfortranarray(pts)):
        assert np.array_equal(action(block), want)


def test_constant_pi_action_flips_every_weight():
    pol = oscillatory_policy(quadratic_action([[0.0]], constant=np.pi))
    w = pol.weights(halton_source(0).block(0, 16, 1))
    assert np.allclose(w, -1.0)


def test_quadratic_action_rejects_asymmetry_and_large_rank():
    with pytest.raises(ValidationError):
        quadratic_action([[1.0, 0.2], [0.1, 1.0]])
    with pytest.raises(ValueError):
        quadratic_action(np.eye(17))


class Quartic(ActionFunctional):
    rank = 1

    def __call__(self, points):
        return points[:, 0] ** 4 / 4


def test_action_subclass_drives_the_action_policies():
    pts = np.array([[1.0], [-2.0]])
    assert ev(Quartic(), -2.0) == 4.0
    assert np.array_equal(boltzmann_policy(Quartic()).weights(pts), np.exp([-0.25, -4.0]))
    assert np.allclose(oscillatory_policy(Quartic()).weights(pts), np.exp([-0.25j, -4.0j]),
                       rtol=1e-15, atol=0)


def test_normal_regularizer_values_and_product_structure():
    reg = normal_quantiles([1.0])
    assert reg.density(np.array([[0.0]]))[0] == 1.0
    assert reg.density(np.array([[1.0]]))[0] == pytest.approx(np.exp(-0.5), rel=1e-15)
    reg2 = normal_quantiles([1.0, 2.0])
    assert reg2.density(np.array([[1.0, 2.0]]))[0] == pytest.approx(np.exp(-1.0), rel=1e-15)
    # product structure: log xi(x) = sum_k log xi_k(x_k)
    pts = np.random.default_rng(2).normal(size=(32, 2))
    joint = np.log(reg2.density(pts))
    split = (np.log(normal_quantiles([1.0]).density(pts[:, :1]))
             + np.log(normal_quantiles([2.0]).density(pts[:, 1:])))
    assert np.max(np.abs(joint - split)) <= 1e-12


def _reference_gaussian(points, widths):
    """The Gaussian regularizer ``xi`` on the first ``len(widths)`` columns,
    as first written: the operations of ``NormalQuantiles.density`` in the
    same order."""
    cols = np.ascontiguousarray(points[:, : len(widths)].T)
    with np.errstate(over="ignore", under="ignore"):
        q = np.divide(cols[0], widths[0])
        q *= q
        tmp = np.empty_like(q)
        for col, width in zip(cols[1:], widths[1:]):
            np.divide(col, width, out=tmp)
            tmp *= tmp
            q += tmp
        q *= -0.5
        return np.exp(q, out=q)


_WIDTH = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-200, 1e200]))
# 1e155 and up square past the largest double.
_COORD = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e155, -1e200, 1.7e308]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(widths=st.lists(_WIDTH, min_size=1, max_size=4), extra=st.integers(0, 2),
       data=st.data())
def test_normal_regularizer_keeps_its_bits_in_either_layout(widths, extra, data):
    rank = len(widths) + extra
    rows = data.draw(st.lists(st.lists(_COORD, min_size=rank, max_size=rank),
                              min_size=1, max_size=6))
    pts = np.array(rows + [[1e200] * rank])
    reg = normal_quantiles(widths)
    want = _reference_gaussian(pts, widths).tobytes()
    for block in (np.ascontiguousarray(pts), np.asfortranarray(pts)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reg.density(block[:, : len(widths)]).tobytes() == want


def test_normal_regularizer_extreme_width_gives_exact_limits():
    reg = normal_quantiles([1e-200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xi = reg.density(np.array([[0.0], [1.0]]))
    assert xi.tolist() == [1.0, 0.0]


def test_registry_gaussian_is_the_regularizer():
    ws = [0.5, 1.0, 2.0]
    func = build_function({"name": "gaussian", "widths": ws})
    x = np.random.default_rng(5).normal(size=(64, 4))
    assert func.rank == 3
    assert np.array_equal(func.eval_block(x), normal_quantiles(ws).density(x[:, :3]))
    with pytest.raises(ValidationError):
        build_function({"name": "gaussian", "widths": [1.0, 0.0]})


# ---------------------------------------------------------------------------
# oscillatory means


def test_oscillatory_mean_plain_gaussian_second_moment():
    report = oscillatory_mean(
        halton_source(1), quadratic_action([[0.0]]), normal_quantiles([1.0]),
        F_X1SQ, 10**6, FULL(10**6),
    )
    assert abs(report.final_estimate - 1.0) <= 5e-3


def test_oscillatory_mean_complex_gaussian_second_moment():
    report = oscillatory_mean(
        halton_source(1), quadratic_action([[1.0]]), normal_quantiles([1.0]),
        F_X1SQ, 10**6, FULL(10**6),
    )
    assert abs(report.final_estimate - (0.5 - 0.5j)) <= 5e-3


def test_oscillatory_mean_normalization_is_exact():
    one = cylinder_function(0, 1.0, "one")
    report = oscillatory_mean(
        halton_source(1), quadratic_action([[2.5]], constant=1.1),
        normal_quantiles([1.3]), one, 2000,
    )
    assert report.final_estimate == 1 + 0j


def test_oscillatory_mean_agrees_with_wick_rotated_route():
    # S = 0 oscillatory estimate vs the positive-weight route on the
    # same pullback points with weights exp(-S), S = 0
    src = pullback_source(halton_source(1), normal_quantiles())
    zero = quadratic_action([[0.0]])
    boltz = run(src, boltzmann_policy(zero), F_X1SQ, 10**5, FULL(10**5))
    osc = oscillatory_mean(
        halton_source(1), zero, normal_quantiles([1.0]), F_X1SQ, 10**5, FULL(10**5),
    )
    assert abs(osc.final_estimate - boltz.final_estimate) <= 1e-12
    assert abs(osc.final_estimate - 1.0) <= 2e-2


def test_phase_shift_gauge_invariance():
    base = halton_source(1)
    reg = normal_quantiles([1.0])
    rule = StoppingRule(window=20, min_samples=10**4)  # a trace row every 500 points
    plain = oscillatory_mean(base, quadratic_action([[1.0]]), reg, F_X1SQ,
                             10**4, rule, skip_certification=True)
    shifted = oscillatory_mean(base, quadratic_action([[1.0]], constant=0.77), reg,
                               F_X1SQ, 10**4, rule, skip_certification=True)
    for a, b in zip(plain.trace["estimate"], shifted.trace["estimate"]):
        assert abs(a - b) <= 1e-12 * abs(a)


def test_partition_function_conditioning_matches_closed_form():
    # |Z_m| / sum|w| approaches |1 + i a s^2|^{-1/2} = 2^{-1/4} for a = s = 1
    report = oscillatory_mean(
        halton_source(1), quadratic_action([[1.0]]), normal_quantiles([1.0]),
        F_X1SQ, 10**6, FULL(10**6),
    )
    target = 2.0 ** -0.25
    assert abs(report.trace["den_ratio"][-1] - target) <= 0.1 * target


def test_oscillatory_mean_requires_wide_enough_regularizer():
    with pytest.raises(ValidationError):
        oscillatory_mean(
            halton_source(1), quadratic_action(np.eye(2)), normal_quantiles([1.0]),
            F_X1SQ, 2000, skip_certification=True,
        )


def test_oscillatory_mean_certifies_the_base_source():
    bad = convergent_source(0.3, 0.5, 0.0)
    with pytest.raises(CertificationError):
        oscillatory_mean(
            bad, quadratic_action([[1.0]]), normal_quantiles([1.0]),
            F_X1SQ, 2000,
        )
    # the flag skips the check; the constant point makes a defined ratio
    report = oscillatory_mean(
        bad, quadratic_action([[1.0]]), normal_quantiles([1.0]),
        F_X1SQ, 2000, skip_certification=True,
    )
    assert report.final_estimate is not None


def test_oscillatory_mean_rejects_unknown_route():
    with pytest.raises(ValueError):
        oscillatory_mean(
            halton_source(1), quadratic_action([[1.0]]), normal_quantiles([1.0]),
            F_X1SQ, 2000, route="sideways", skip_certification=True,
        )


def test_routes_are_compositions_of_public_parts():
    # The weight-borne box is 8x the widest regularizer width; another box is
    # the same composition with another half-width.
    base, act = halton_source(1), quadratic_action([[1.0, 0.5], [0.5, 2.0]])
    reg, f = normal_quantiles([1.0, 0.7]), build_function(
        {"name": "polynomial", "coeffs": [0.0, 0.0, 1.0], "index": 2})
    composed = {
        "pullback": (pullback_source(base, reg), oscillatory_policy(act)),
        "weight-borne": (pullback_source(base, box_quantiles(8 * max(reg.widths))),
                         product_regularized_policy(reg, act)),
    }
    for route, (source, policy) in composed.items():
        got = oscillatory_mean(base, act, reg, f, 20000, FULL(5000), route=route,
                               skip_certification=True)
        want = run(source, policy, f, 20000, FULL(5000))
        assert got.final_estimate.real.hex() == want.final_estimate.real.hex()
        assert got.final_estimate.imag.hex() == want.final_estimate.imag.hex()
        assert (got.N_used, got.stop_reason) == (want.N_used, want.stop_reason)
        assert got.trace_rows() == want.trace_rows()


# ---------------------------------------------------------------------------
# width scan


def test_fresnel_scan_values_and_trend():
    scan = fresnel_limit_scan(
        halton_source(1), quadratic_action([[1.0]]), [1.0, 2.0],
        budget=10**6, rule=FULL(10**6), skip_certification=True,
    )
    (s1, r1), (s2, r2) = scan
    assert (s1, s2) == (1.0, 2.0)
    assert abs(r1.final_estimate - complex_gaussian_moment(1.0, 1.0, 2)) <= 5e-3
    assert abs(r2.final_estimate - complex_gaussian_moment(1.0, 2.0, 2)) <= 1e-2
    limit = -1j  # unregularized value for curvature 1
    assert abs(r2.final_estimate - limit) < abs(r1.final_estimate - limit)


def test_fresnel_scan_validates_inputs():
    with pytest.raises(ValueError):
        fresnel_limit_scan(halton_source(1), quadratic_action([[0.0]]), [1.0, 2.0])
    with pytest.raises(ValueError):
        fresnel_limit_scan(halton_source(1), quadratic_action([[1.0]]), [2.0, 1.0])
    with pytest.raises(ValidationError):
        fresnel_limit_scan(halton_source(1), quadratic_action(np.eye(2)), [1.0, 2.0])
