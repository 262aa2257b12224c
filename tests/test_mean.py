"""Accumulator algebra, degeneracy guard, stopping, merge, reproducibility."""

import itertools
import math
import tracemalloc
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmean import (
    DEGENERATE,
    MeanAccumulator,
    StoppingRule,
    WeightPolicy,
    boltzmann_policy,
    constant_policy,
    convergent_source,
    cylinder_function,
    density_policy,
    halton_source,
    merge,
    oscillatory_policy,
    pseudorandom_source,
    quadratic_action,
    run,
    run_blocked,
    weyl_source,
)
from diracmean import mean as mean_mod
from diracmean.errors import EmptyAccumulator, NonFiniteInput, ValidationError

F_X1 = cylinder_function(1, lambda x: x[:, 0], "x1")
F_ONE = cylinder_function(0, 1.0, "one")


def filled(pairs):
    acc = MeanAccumulator()
    for w, v in pairs:
        acc.add_block(np.asarray([w]), np.asarray([v]))
    return acc


# ---------------------------------------------------------------------------
# accumulate / estimate


def test_single_point_barycenter():
    assert filled([(1, 5)]).estimate() == 5 + 0j


def test_symmetric_average():
    assert filled([(1, 0), (1, 1)]).estimate() == 0.5 + 0j


def test_complex_weight_ratio_by_hand():
    # (1*1 + i*3) / (1 + i) = (1+3i)(1-i)/2 = 2 + i
    assert filled([(1, 1), (1j, 3)]).estimate() == 2 + 1j


def test_exact_cancellation_is_degenerate():
    acc = filled([(1, 1), (-1, 1)])
    assert acc.estimate() is DEGENERATE
    assert acc.estimate(0.5) is DEGENERATE


def test_orthogonal_weights_are_well_conditioned():
    acc = filled([(1, 1), (1j, 3)])
    assert acc.den_ratio == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert acc.estimate(1e-8) is not DEGENERATE


def test_all_zero_weights_are_degenerate_not_nan():
    acc = filled([(0, 1), (0, 2)])
    assert acc.estimate() is DEGENERATE


def _exact_quotient(num: complex, den: complex) -> complex:
    """``num / den`` from exact rationals, each part rounded once."""
    a, b, c, d = (Fraction(v) for v in (num.real, num.imag, den.real, den.imag))
    norm = c * c + d * d
    return complex(float((a * c + b * d) / norm), float((b * c - a * d) / norm))


class CyclingWeights(WeightPolicy):
    """Weights 1, -1, 1e-170, repeating with the point index."""

    kind = "cycling"

    def weights(self, points, start_index=0):
        n = np.arange(start_index, start_index + len(points)) % 3
        return np.array([1.0, -1.0, 1e-170])[n]


@pytest.mark.parametrize("path", ["estimate", "run"])
def test_weight_sum_far_below_the_absolute_sum_divides_without_underflow(path):
    # |den / aw|^2 underflows to 0 in both; above the threshold, so not degenerate.
    if path == "estimate":
        acc = MeanAccumulator().add_block(np.array([1.0, -1.0, 1e-170]),
                                          np.array([1.0, 2.0, 3.0]))
        est, num, den = acc.estimate(1e-200), acc.numerator, acc.denominator
    else:
        report = run(halton_source(1), CyclingWeights(), F_X1, 3000,
                     StoppingRule(min_samples=3000, degeneracy_threshold=1e-200))
        trace = report.trace
        est, num, den = report.final_estimate, trace["numerator"][-1], trace["denominator"][-1]
    exact = _exact_quotient(num, den)
    assert math.isfinite(est.real) and math.isfinite(est.imag)
    assert abs(est.real - exact.real) <= 2 * math.ulp(exact.real)
    assert abs(est.imag - exact.imag) <= 2 * math.ulp(exact.imag)


def test_empty_accumulator_raises():
    with pytest.raises(EmptyAccumulator):
        MeanAccumulator().estimate()


@pytest.mark.parametrize("delta", [0.0, -1.0, 1.0, math.nan, math.inf, True])
def test_estimate_rejects_delta_outside_the_unit_interval(delta):
    cancelled = MeanAccumulator().add_block(np.array([1.0, -1.0]), np.array([1.0, 2.0]))
    assert cancelled.estimate(1e-8) is DEGENERATE
    with pytest.raises(ValidationError, match=r"^delta: must be a finite number in \(0, 1\)"):
        cancelled.estimate(delta)


def test_nonfinite_inputs_rejected():
    acc = MeanAccumulator()
    with pytest.raises(NonFiniteInput):
        acc.add_block(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(NonFiniteInput):
        acc.add_block(np.array([1.0]), np.array([np.inf]))
    with pytest.raises(NonFiniteInput):
        acc.add_block(np.array([1.0, np.nan]), np.array([1.0, 1.0]))


def test_accumulate_functional_form_and_invariants():
    acc = MeanAccumulator()
    acc.add_block(np.array([1.0]), np.array([2.0]))
    acc.add_block(np.array([-0.5j]), np.array([4.0]))
    assert acc.count == 2
    assert acc.abs_weight_sum >= abs(acc.denominator)


def test_constant_weights_denominator_equals_count():
    acc = filled([(1.0, v) for v in np.linspace(0, 1, 257)])
    assert acc.denominator == complex(acc.count)


# ---------------------------------------------------------------------------
# merge


def test_merge_matches_sequential_oracle():
    rng = np.random.default_rng(3)
    w = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    v = rng.normal(size=1000)
    seq_acc = filled(zip(w, v))
    a = filled(zip(w[:500], v[:500]))
    b = filled(zip(w[500:], v[500:]))
    merged = merge(a, b)
    assert merged.count == 1000
    ref = seq_acc.estimate()
    assert abs(merged.estimate() - ref) <= 1e-12 * abs(ref)


def test_merge_with_empty_is_identity():
    a = filled([(1, 1), (2, 3)])
    m = merge(MeanAccumulator(), a)
    assert m.estimate() == a.estimate()
    assert m.count == a.count
    m2 = merge(a, MeanAccumulator())
    assert m2.estimate() == a.estimate()


def test_merge_is_commutative_within_rounding():
    rng = np.random.default_rng(4)
    w = np.exp(1j * rng.normal(size=400))
    v = rng.normal(size=400)
    a = filled(zip(w[:123], v[:123]))
    b = filled(zip(w[123:], v[123:]))
    x, y = merge(a, b).estimate(), merge(b, a).estimate()
    assert abs(x - y) <= 1e-12 * abs(x)


# ---------------------------------------------------------------------------
# run


def test_constant_function_converges_at_min_samples():
    report = run(halton_source(0), constant_policy(), F_ONE, 10**4)
    assert report.final_estimate == 1 + 0j
    assert report.converged
    assert report.stop_reason == "window-cauchy"
    assert report.N_used == StoppingRule().min_samples


def test_cesaro_mean_of_convergent_sequence():
    src = convergent_source(0.0, 0.5)
    func = cylinder_function(1, lambda x: np.cos(x[:, 0]), "cos")
    report = run(src, constant_policy(), func, 10**5,
                 StoppingRule(min_samples=10**5))
    assert abs(report.final_estimate - 1.0) <= 1e-3


def test_alternating_phases_stop_degenerate():
    pol = oscillatory_policy(quadratic_action([[0.0]]), index_phase=math.pi)
    report = run(halton_source(0), pol, F_X1, 10**4)
    assert report.stop_reason == "degenerate"
    assert report.final_estimate is DEGENERATE
    assert not report.converged
    trace = report.trace
    for est, den_ratio, num, den in zip(trace["estimate"], trace["den_ratio"],
                                        trace["numerator"], trace["denominator"]):
        assert est is None
        assert math.isfinite(den_ratio)
        assert math.isfinite(abs(num))
        assert math.isfinite(abs(den))


def test_budget_below_min_samples_rejected():
    with pytest.raises(ValueError):
        run(halton_source(0), constant_policy(), F_ONE, 10)


def test_trace_is_strictly_increasing_and_strided():
    report = run(halton_source(0), constant_policy(), F_X1, 5000,
                 StoppingRule(min_samples=5000), trace_stride=1000)
    ms = report.trace["m"]
    assert ms == sorted(set(ms))
    assert ms == [1000, 2000, 3000, 4000, 5000]


def test_normalization_is_exact_for_every_policy():
    policies = [
        constant_policy(),
        density_policy(lambda x: 1.0 + x[:, 0], 1),
        oscillatory_policy(quadratic_action([[2.0]])),
    ]
    for c in (1.0, 2.0, -0.5):
        func = cylinder_function(0, c, f"const {c}")
        for pol in policies:
            report = run(halton_source(0), pol, func, 3000)
            assert report.final_estimate == complex(c)


def test_linearity_at_fixed_prefix():
    f = cylinder_function(2, lambda x: x[:, 0] * x[:, 1], "xy")
    g = cylinder_function(2, lambda x: np.cos(x[:, 0]) + x[:, 1], "g")
    combo = cylinder_function(
        2, lambda x: 2.0 * (x[:, 0] * x[:, 1]) + 3.0 * (np.cos(x[:, 0]) + x[:, 1]), "2f+3g"
    )
    pol = density_policy(lambda x: 1.0 + x[:, 0], 1)
    rule = StoppingRule(min_samples=10**4)
    ef = run(halton_source(0), pol, f, 10**4, rule).final_estimate
    eg = run(halton_source(0), pol, g, 10**4, rule).final_estimate
    ec = run(halton_source(0), pol, combo, 10**4, rule).final_estimate
    assert abs(ec - (2 * ef + 3 * eg)) <= 1e-12 * abs(ec)


def test_gauge_invariance_of_partial_estimates():
    class Scaled:
        def __init__(self, inner, c):
            self.inner, self.c, self.rank = inner, c, inner.rank

        def weights(self, pts, start_index=0):
            return self.c * self.inner.weights(pts, start_index)

    pol = density_policy(lambda x: 1.0 + x[:, 0], 1)
    c = 2.0 * np.exp(1j * np.pi / 3.0)
    rule = StoppingRule(min_samples=10**4)
    plain = run(halton_source(0), pol, F_X1, 10**4, rule, trace_stride=500)
    scaled = run(halton_source(0), Scaled(pol, c), F_X1, 10**4, rule, trace_stride=500)
    a_est, b_est = plain.trace["estimate"], scaled.trace["estimate"]
    assert len(a_est) == len(b_est)
    for a, b in zip(a_est, b_est):
        assert abs(a - b) <= 1e-12 * abs(a)


def test_prefix_permutation_invariance():
    rng = np.random.default_rng(12)
    w = np.exp(1j * rng.normal(size=2000))
    v = rng.normal(size=2000)
    forward = filled(zip(w, v)).estimate()
    perm = rng.permutation(2000)
    shuffled = filled(zip(w[perm], v[perm])).estimate()
    assert abs(forward - shuffled) <= 1e-12 * abs(forward)


def test_scalar_and_block_paths_agree_to_rounding():
    pts = halton_source(0).block(0, 3000, 1)
    pol = density_policy(lambda x: 1.0 + x[:, 0], 1)
    w = pol.weights(pts)
    v = F_X1.eval_block(pts)
    scalar = filled(zip(w, v)).estimate()
    block = MeanAccumulator().add_block(w, v).estimate()
    assert abs(scalar - block) <= 1e-12 * abs(scalar)


# ---------------------------------------------------------------------------
# blocked evaluation and reproducibility


def test_blocked_run_agrees_with_sequential():
    pol = density_policy(lambda x: 1.0 + x[:, 0], 1)
    sequential = run(halton_source(0), pol, F_X1, 10**5,
                     StoppingRule(min_samples=10**5)).final_estimate
    for n_blocks in (2, 8, 13):
        acc = run_blocked(halton_source(0), pol, F_X1, 10**5, n_blocks)
        assert acc.count == 10**5
        assert abs(acc.estimate() - sequential) <= 1e-12 * abs(sequential)


# One chunk loop: ``run_blocked`` walks each index block as ``run`` walks its
# budget, in 65536-point blocks, so the sums agree bit for bit.
WALK_SOURCES = {"halton": lambda: halton_source(3), "weyl": lambda: weyl_source(index_offset=3),
                "pseudorandom": lambda: pseudorandom_source(3)}
WALK_ACTION = quadratic_action([[2.0, 0.5], [0.5, 1.0]], linear=[0.3, -0.2])
WALK_POLICIES = {"boltzmann": boltzmann_policy(WALK_ACTION),
                 "oscillatory": oscillatory_policy(WALK_ACTION)}
F_X1X2 = cylinder_function(2, lambda x: x[:, 0] * x[:, 1], "x1 x2")


def _sums_bits(num, den, aw, count):
    return num.real.hex(), num.imag.hex(), den.real.hex(), den.imag.hex(), aw.hex(), count


@pytest.mark.parametrize("total", [2 * 65536, 140001], ids=["whole-blocks", "short-block"])
@pytest.mark.parametrize("pol", WALK_POLICIES)
@pytest.mark.parametrize("src", WALK_SOURCES)
def test_run_blocked_with_one_block_is_run_to_its_budget(src, pol, total):
    acc = run_blocked(WALK_SOURCES[src](), WALK_POLICIES[pol], F_X1X2, total, 1)
    report = run(WALK_SOURCES[src](), WALK_POLICIES[pol], F_X1X2, total,
                 StoppingRule(min_samples=total), block_size=65536)
    ms, nums, dens, aws = report._columns
    assert _sums_bits(nums[-1], dens[-1], aws[-1], ms[-1]) == _sums_bits(
        acc.numerator, acc.denominator, acc.abs_weight_sum, acc.count)


def _blocked_reference(src, pol, func, total, n_blocks):
    """``run_blocked`` from its definition: ``add_block`` over 65536-point
    chunks counted from each index block's first point, and the blocks
    merged pairwise, an odd one out waiting a round."""
    rank = max(pol.rank, func.rank, 1)
    edges = [round(i * total / n_blocks) for i in range(n_blocks + 1)]
    accs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        acc = MeanAccumulator()
        for start in range(lo, hi, 65536):
            pts = src.block(start, min(start + 65536, hi), rank)
            acc.add_block(pol.weights(pts, start_index=start), func.eval_block(pts))
        accs.append(acc)
    while len(accs) > 1:
        accs = [merge(a, b) for a, b in zip(accs[::2], accs[1::2])] + accs[len(accs) // 2 * 2:]
    return accs[0]


@pytest.mark.parametrize("pol", WALK_POLICIES)
def test_run_blocked_with_uneven_blocks_matches_its_definition(pol):
    # Eight index blocks of 75000 or 75001 points: each a whole chunk and a short one.
    got = run_blocked(pseudorandom_source(3), WALK_POLICIES[pol], F_X1X2, 600005, 8)
    want = _blocked_reference(pseudorandom_source(3), WALK_POLICIES[pol], F_X1X2, 600005, 8)
    assert _sums_bits(got.numerator, got.denominator, got.abs_weight_sum, got.count) == \
        _sums_bits(want.numerator, want.denominator, want.abs_weight_sum, want.count)


def test_same_block_size_is_bit_identical():
    pol = density_policy(lambda x: 1.0 + x[:, 0], 1)
    rule = StoppingRule(min_samples=2 * 10**4)
    a = run(pseudorandom_source(5), pol, F_X1, 2 * 10**4, rule, block_size=2048)
    b = run(pseudorandom_source(5), pol, F_X1, 2 * 10**4, rule, block_size=2048)
    assert [a.trace[k] for k in ("m", "numerator", "denominator")] == \
        [b.trace[k] for k in ("m", "numerator", "denominator")]
    assert a.final_estimate == b.final_estimate


class NaNAt:
    """Weight policy of ones with a NaN weight at one global index."""

    rank = 1

    def __init__(self, index):
        self.index = index

    def weights(self, pts, start_index=0):
        w = np.ones(len(pts))
        if 0 <= self.index - start_index < len(pts):
            w[self.index - start_index] = np.nan
        return w


STOP_RULE = StoppingRule(min_samples=56, rel_tol=1e-4)  # linear checkpoints every 7


DENSITY_POL = density_policy(lambda x: 1.0 + x[:, 0], 1)
ALTERNATING_POL = oscillatory_policy(quadratic_action([[0.0]]), index_phase=math.pi)


@pytest.mark.parametrize("pol, rule, budget, strides, block_size, reason, n_used", [
    (DENSITY_POL, StoppingRule(min_samples=STOP_RULE.min_samples, rel_tol=1e-4), 2 * 10**5,
     (7, 1000, 2 * 10**5), 1024, "window-cauchy", None),
    (DENSITY_POL, StoppingRule(min_samples=STOP_RULE.min_samples, rel_tol=1e-13), 2 * 10**5,
     (7, 1000, 2 * 10**5), 1024, "budget-exhausted", None),
    # Checkpoints every min_samples // window = 125 points whatever the stride.
    (constant_policy(), StoppingRule(rel_tol=1e-3), 60000, (1, 7, 1000, 60000), 4096,
     "window-cauchy", 1190),
    # Alternating weights cancel exactly at every even m and never at an odd
    # one, so no window of checkpoints is all degenerate: the run reaches the
    # budget, and its parity decides the outcome.
    (ALTERNATING_POL, StoppingRule(), 10000, (7, 1000), 4096, "degenerate", 10000),
    (ALTERNATING_POL, StoppingRule(), 10001, (7, 1000), 4096, "budget-exhausted", 10001),
], ids=["0.0001-window-cauchy", "1e-13-budget-exhausted", "default-min-samples",
        "alternating-even", "alternating-odd"])
def test_trace_stride_never_moves_the_result(pol, rule, budget, strides, block_size, reason,
                                             n_used):
    reports = [run(halton_source(1), pol, F_X1, budget, rule, trace_stride=stride,
                   block_size=block_size) for stride in strides]
    for report in reports:
        assert report.stop_reason == reason
        assert report.final_estimate == reports[0].final_estimate
        assert report.N_used == reports[0].N_used
    if reason == "window-cauchy":
        assert reports[0].N_used % block_size != 0  # the stop fell inside a block
    if n_used is not None:
        assert reports[0].N_used == n_used


def _bits(estimate):
    return estimate if estimate is DEGENERATE else (estimate.real.hex(), estimate.imag.hex())


@settings(max_examples=50, deadline=None)
@given(
    offset=st.integers(0, 10**6),
    pol=st.sampled_from([constant_policy(), DENSITY_POL, ALTERNATING_POL,
                         oscillatory_policy(quadratic_action([[2.0]]))]),
    stride=st.integers(1, 25000),
    block_size=st.integers(64, 8192),
    rel_tol=st.floats(1e-6, 1e-2),
)
def test_stopping_never_depends_on_the_stride(offset, pol, stride, block_size, rel_tol):
    rule = StoppingRule(rel_tol=rel_tol)
    ref, got = (run(halton_source(offset), pol, F_X1, 20000, rule, trace_stride=s,
                    block_size=block_size) for s in (1000, stride))
    assert (got.N_used, got.stop_reason) == (ref.N_used, ref.stop_reason)
    assert _bits(got.final_estimate) == _bits(ref.final_estimate)


class Recording:
    """Point source that records the index range of every ``block`` call."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def block(self, start, stop, rank, out=None):
        self.calls.append((start, stop))
        return self.inner.block(start, stop, rank, out)


def assert_whole_blocks(calls, block_size, budget, n_used):
    """Calls cover whole blocks, contiguous from 0, at most 16384 points each
    (or one larger block), the last ending with the block that holds n_used."""
    assert calls[0][0] == 0
    assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
    for start, stop in calls:
        assert start % block_size == 0 and (stop % block_size == 0 or stop == budget)
        assert 0 < stop - start <= max(1, 16384 // block_size) * block_size
    assert calls[-1][1] == min(-(-n_used // block_size) * block_size, budget)


def test_blocks_are_the_only_partition():
    src = Recording(halton_source(1))
    report = run(src, constant_policy(), F_X1, 10**5, STOP_RULE, trace_stride=7,
                 block_size=1024)
    assert_whole_blocks(src.calls, 1024, 10**5, report.N_used)
    assert src.calls[-1][0] < report.N_used <= src.calls[-1][1]


@pytest.mark.parametrize("pol, rule, budget, stride, block_size", [
    (DENSITY_POL, StoppingRule(rel_tol=1e-5), 10**5, 1000, 4096),
    (DENSITY_POL, StoppingRule(min_samples=10**5), 10**5, 1000, 5000),
    (ALTERNATING_POL, StoppingRule(), 10**4, 1000, 7),
    (DENSITY_POL, StoppingRule(min_samples=1000, rel_tol=1e-5), 2 * 10**5, 1000, 70000),
    (DENSITY_POL, StoppingRule(min_samples=300, rel_tol=1e-3), 3000, 7, 1),
], ids=["geometric-checkpoints", "fixed-budget", "degenerate", "huge-blocks", "single-points"])
def test_batches_are_whole_blocks_up_to_the_stopping_block(pol, rule, budget, stride,
                                                           block_size):
    src = Recording(halton_source(1))
    report = run(src, pol, F_X1, budget, rule, trace_stride=stride, block_size=block_size)
    assert_whole_blocks(src.calls, block_size, budget, report.N_used)


class RaisesFrom:
    """Density weights that raise at any index from ``index`` on."""

    rank = 1
    kind = "raises-from"

    def __init__(self, index):
        self.index = index

    def weights(self, pts, start_index=0):
        if start_index + len(pts) > self.index:
            raise AssertionError(f"evaluated index {self.index} or later")
        return DENSITY_POL.weights(pts, start_index)


@pytest.mark.parametrize("block_size", [1024, 4096, 5000])
def test_no_point_past_the_stopping_block_is_evaluated(block_size):
    rule = StoppingRule(rel_tol=1e-5)
    clean = run(halton_source(1), DENSITY_POL, F_X1, 10**6, rule, block_size=block_size)
    assert clean.stop_reason == "window-cauchy" and clean.N_used < 10**6
    limit = -(-clean.N_used // block_size) * block_size
    report = run(halton_source(1), RaisesFrom(limit), F_X1, 10**6, rule, block_size=block_size)
    assert (report.N_used, _bits(report.final_estimate)) == \
        (clean.N_used, _bits(clean.final_estimate))


def test_setup_memory_does_not_grow_with_the_budget():
    # This run stops at 1545 points whatever the budget, so no setup may
    # scale with the budget: trace marks listed up to 10**9 take 74 MiB.
    rule = StoppingRule(rel_tol=1e-3)
    run(halton_source(), constant_policy(), F_X1, 10**4, rule)  # fills one-time caches
    tracemalloc.start()
    try:
        report = run(halton_source(), constant_policy(), F_X1, 10**9, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.stop_reason, report.N_used) == ("window-cauchy", 1545)
    assert peak < 4 * 2**20


class AbsWeights:
    """The absolute values of another policy's weights."""

    def __init__(self, inner):
        self.inner, self.rank = inner, inner.rank

    def weights(self, pts, start_index=0):
        return np.abs(self.inner.weights(pts, start_index))


@settings(max_examples=40, deadline=None)
@given(
    offset=st.integers(0, 10**6),
    pol=st.sampled_from([DENSITY_POL, oscillatory_policy(quadratic_action([[2.0]]))]),
    block_size=st.integers(1, 20000),
    n_blocks=st.integers(1, 40),
    short=st.floats(0.0, 1.0, exclude_max=True),
)
def test_batched_run_folds_blocks_like_add_block(offset, pol, block_size, n_blocks, short):
    budget = n_blocks * block_size - int(short * block_size)
    rule = StoppingRule(min_samples=budget)
    want = MeanAccumulator()
    src = halton_source(offset)
    for start in range(0, budget, block_size):
        pts = src.block(start, min(start + block_size, budget), 1)
        want.add_block(pol.weights(pts, start_index=start), F_X1.eval_block(pts))
    got = run(src, pol, F_X1, budget, rule, block_size=block_size).trace
    aw = run(src, AbsWeights(pol), F_ONE, budget, rule, block_size=block_size).trace
    assert (got["m"][-1], aw["m"][-1]) == (budget, budget)
    for a, b in ((got["numerator"][-1], want.numerator),
                 (got["denominator"][-1], want.denominator),
                 (aw["denominator"][-1], complex(want.abs_weight_sum))):
        assert (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex())


@pytest.mark.parametrize("base", [lambda x: x[:, :1], lambda x: 0.5],
                         ids=["column", "scalar"])
def test_function_values_of_the_wrong_shape_are_rejected(base):
    func = cylinder_function(1, base, "bad-shape")
    with pytest.raises(ValueError, match="bad-shape returned values of shape"):
        run(halton_source(1), constant_policy(), func, 2000, StoppingRule(min_samples=1000),
            block_size=256)
    with pytest.raises(ValueError, match="bad-shape returned values of shape"):
        run_blocked(halton_source(1), constant_policy(), func, 512, 2)


class ColumnWeights:
    rank = 1
    kind = "column"

    def weights(self, pts, start_index=0):
        return np.ones((len(pts), 1))


def test_weights_of_the_wrong_shape_are_rejected():
    with pytest.raises(ValueError, match=r"column policy returned weights of shape \(2000, 1\)"):
        run(halton_source(1), ColumnWeights(), F_X1, 2000)
    with pytest.raises(ValueError, match="column policy returned weights"):
        run_blocked(halton_source(1), ColumnWeights(), F_X1, 512, 2)
    with pytest.raises(ValueError, match="do not match"):
        MeanAccumulator().add_block(np.ones(3), np.ones((3, 1)))


def test_trace_rows_match_filled_accumulators():
    pol = oscillatory_policy(quadratic_action([[2.0]]))
    report = run(halton_source(1), pol, F_X1, 20000, StoppingRule(min_samples=20000),
                 trace_stride=777, block_size=4096)
    pts = halton_source(1).block(0, 20000, 1)
    w, v = pol.weights(pts), F_X1.eval_block(pts)
    trace = report.trace
    assert trace["m"][:-1] == list(range(777, 20000, 777))
    for m, num, den, est, den_ratio in zip(trace["m"], trace["numerator"], trace["denominator"],
                                           trace["estimate"], trace["den_ratio"]):
        acc = MeanAccumulator().add_block(w[:m], v[:m])
        for got, want in ((num, acc.numerator), (den, acc.denominator),
                          (est, acc.estimate())):
            assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(den_ratio - acc.den_ratio) <= 1e-12 * acc.den_ratio


def test_last_trace_row_is_the_final_state():
    src, pol = halton_source(1), density_policy(lambda x: 1.0 + x[:, 0], 1)
    report = run(src, pol, F_X1, 2 * 10**5, STOP_RULE, trace_stride=7, block_size=1024)
    last = {name: column[-1] for name, column in report.trace.items()}
    acc = MeanAccumulator()
    for start in range(0, report.N_used, 1024):
        pts = src.block(start, min(start + 1024, report.N_used), 1)
        acc.add_block(pol.weights(pts, start_index=start), F_X1.eval_block(pts))
    assert last["m"] == report.N_used
    assert last["estimate"] == report.final_estimate == acc.estimate()
    assert (last["numerator"], last["denominator"], last["den_ratio"]) == \
        (acc.numerator, acc.denominator, acc.den_ratio)


def test_nonfinite_term_before_the_stop_raises():
    clean = run(halton_source(1), constant_policy(), F_X1, 10**5, STOP_RULE,
                block_size=4096)
    stop = clean.N_used
    assert stop % 4096 not in (0, 4095)
    with pytest.raises(NonFiniteInput):
        run(halton_source(1), NaNAt(stop - 1), F_X1, 10**5, STOP_RULE, block_size=4096)
    # A term past the stop, in the same block, is evaluated and discarded.
    past = run(halton_source(1), NaNAt(stop), F_X1, 10**5, STOP_RULE, block_size=4096)
    assert (past.final_estimate, past.N_used) == (clean.final_estimate, clean.N_used)


def test_infinite_weights_before_the_stop_raise_nonfinite_input():
    clean = run(halton_source(1), constant_policy(), F_X1, 10**5, STOP_RULE, block_size=4096)
    stop = clean.N_used

    class InfPair(NaNAt):
        def weights(self, pts, start_index=0):
            w = np.ones(len(pts))
            for i, value in ((self.index, np.inf), (self.index + 1, -np.inf)):
                if 0 <= i - start_index < len(pts):
                    w[i - start_index] = value
            return w

    with pytest.raises(NonFiniteInput, match="weight"):
        run(halton_source(1), InfPair(stop - 2), F_X1, 10**5, STOP_RULE, block_size=4096)
    past = run(halton_source(1), InfPair(stop), F_X1, 10**5, STOP_RULE, block_size=4096)
    assert (past.final_estimate, past.N_used) == (clean.final_estimate, clean.N_used)


def test_nonfinite_term_in_an_earlier_block_of_the_stopping_batch_raises():
    rule = StoppingRule(rel_tol=1e-5)
    src = Recording(halton_source(1))
    clean = run(src, NaNAt(-1), F_X1, 10**6, rule, block_size=1024)
    assert clean.stop_reason == "window-cauchy"
    first, end = src.calls[-1]
    stop_block = (clean.N_used - 1) // 1024 * 1024
    assert first < stop_block  # the batch holding the stop has earlier blocks
    for index in (first, stop_block - 1):
        with pytest.raises(NonFiniteInput, match="weight"):
            run(halton_source(1), NaNAt(index), F_X1, 10**6, rule, block_size=1024)
    # The stopping block ends its batch, so every term past the stop that is
    # evaluated lies in that block; each is discarded.
    assert end == stop_block + 1024
    for index in (clean.N_used, end - 1):
        past = run(halton_source(1), NaNAt(index), F_X1, 10**6, rule, block_size=1024)
        assert (_bits(past.final_estimate), past.N_used) == \
            (_bits(clean.final_estimate), clean.N_used)


def test_overflowing_block_sums_raise_nonfinite_input():
    # Each weight e^690 and value 1e10 is finite; their products are not.
    pol = boltzmann_policy(quadratic_action([[0.0]], constant=-690))
    func = cylinder_function(1, lambda x: np.full(len(x), 1e10), "1e10")
    with pytest.raises(NonFiniteInput, match="overflow"):
        run(halton_source(1), pol, func, 5000, StoppingRule(min_samples=5000))
    with pytest.raises(NonFiniteInput, match="overflow"):
        run_blocked(halton_source(1), pol, func, 5000, 2)


def test_overflowing_running_totals_raise_nonfinite_input():
    # Each 4096-point block of weights e^700 sums to about 4e307, which is
    # finite; the fifth block takes the running total past 1.8e308.
    pol = boltzmann_policy(quadratic_action([[0.0]], constant=-700))
    with pytest.raises(NonFiniteInput, match="running totals overflow"):
        run(halton_source(1), pol, cylinder_function(0, 1.0), 20000,
            StoppingRule(min_samples=20000))
    acc = MeanAccumulator()
    for _ in range(4):
        acc.add_block(np.full(4096, math.exp(700)), np.ones(4096))
    before = (acc.numerator, acc.denominator, acc.abs_weight_sum, acc.count)
    with pytest.raises(NonFiniteInput, match="running totals overflow"):
        acc.add_block(np.full(4096, math.exp(700)), np.ones(4096))
    assert (acc.numerator, acc.denominator, acc.abs_weight_sum, acc.count) == before


def test_merge_whose_totals_overflow_raises_nonfinite_input():
    a, b = filled([(1e308, 1.0)]), filled([(1e308, 1.0)])
    with pytest.raises(NonFiniteInput, match="running totals overflow"):
        merge(a, b)
    assert (a.denominator, a.count) == (b.denominator, b.count) == (1e308, 1)


# Blocks 0..69999 and 70000..140000, each read as a 65536-point chunk and a
# short one: the indices sit in the first chunk, in a short chunk and at a
# block's last point.
@pytest.mark.parametrize("index", [3, 67000, 69999, 140000])
def test_run_blocked_rejects_a_nonfinite_weight_or_function_value(index):
    src = halton_source(1)
    with pytest.raises(NonFiniteInput, match="weight"):
        run_blocked(src, NaNAt(index), F_X1, 140001, 2)
    # Halton coordinates are distinct, so exactly one point has this value.
    target = src.block(index, index + 1, 1)[0, 0]
    func = cylinder_function(1, lambda x: np.where(x[:, 0] == target, np.nan, x[:, 0]))
    with pytest.raises(NonFiniteInput, match="function value"):
        run_blocked(src, constant_policy(), func, 140001, 2)


def _reference_run(src, pol, func, budget, rule, stride, block_size):
    """``run``'s trace columns and final estimate from the definition: whole
    blocks' ``np.sum`` sums folded with ``MeanAccumulator._fold``, in-block
    prefixes as ``np.cumsum`` of ``np.add.reduceat`` cut at the block's marks
    (added to the committed totals in numpy), and estimates from ``_ratio``."""
    delta = rule.degeneracy_threshold
    checks = set(mean_mod._checkpoints(budget, rule))
    marks = sorted(checks | set(range(stride, budget + 1, stride)))
    pts = src.block(0, budget, 1)
    w = pol.weights(pts)
    terms = (w * func.eval_block(pts), w, np.abs(w))
    acc, rows, recent = MeanAccumulator(), [], deque(maxlen=rule.window)

    def observe(m, num, den, aw):
        est = mean_mod._ratio(num, den, aw, delta)
        est = None if est is DEGENERATE else est
        if m % stride == 0 or m == budget:
            rows.append((m, num, den, aw))
        if m not in checks:
            return False
        recent.append(est)
        if m < rule.min_samples or len(recent) < rule.window:
            return False
        if all(e is None for e in recent):
            return True
        return None not in recent and rule.rel_tol * (1.0 + abs(est)) >= max(
            abs(a - b) for a, b in itertools.combinations(recent, 2))

    def fold(lo, hi):
        acc._fold(*(np.sum(t[lo:hi]) for t in terms), hi - lo)

    stopped = False
    for lo in range(0, budget, block_size):
        hi = min(lo + block_size, budget)
        inside = [m for m in marks if lo < m < hi]
        if inside:
            cuts = [0] + [m - lo for m in inside[:-1]]
            nums, dens, aws = (np.cumsum(np.add.reduceat(t[lo:inside[-1]], cuts))
                               for t in terms)
            for m, num, den, aw in zip(inside, (acc.numerator + nums).tolist(),
                                       (acc.denominator + dens).tolist(),
                                       (acc.abs_weight_sum + aws).tolist()):
                if observe(m, num, den, aw):
                    fold(lo, m)
                    stopped = True
                    break
        if stopped:
            break
        fold(lo, hi)
        if hi in marks and observe(hi, acc.numerator, acc.denominator, acc.abs_weight_sum):
            break
    final = (acc.count, acc.numerator, acc.denominator, acc.abs_weight_sum)
    rows = [r for r in rows if r[0] != acc.count] + [final]
    ests = [mean_mod._ratio(num, den, aw, delta) for _, num, den, aw in rows]
    return {
        "m": [r[0] for r in rows],
        "numerator": [r[1] for r in rows],
        "denominator": [r[2] for r in rows],
        "estimate": [None if e is DEGENERATE else e for e in ests],
        "den_ratio": [abs(den) / aw if aw > 0.0 else 0.0 for _, _, den, aw in rows],
    }, acc.estimate(delta)


class SignedWeights:
    """Real weights of both signs, with -0.0 where the cosine is small."""

    rank = 1

    def weights(self, pts, start_index=0):
        w = np.cos(7.0 * pts[:, 0])
        return np.where(np.abs(w) < 0.05, -0.0, w)


@settings(max_examples=40, deadline=None)
@given(
    offset=st.integers(0, 10**6),
    pol=st.sampled_from([DENSITY_POL, SignedWeights(), ALTERNATING_POL,
                         oscillatory_policy(quadratic_action([[2.0]])),
                         oscillatory_policy(quadratic_action([[40.0]]))]),
    block_size=st.sampled_from([1, 3, 1000, 4096, 5000, 20000]),
    stride=st.one_of(st.sampled_from([1, 7, 1000]), st.integers(1, 30000)),
    window=st.integers(2, 8),
    min_samples=st.sampled_from([1, 7, 56, 1000, 3000]),
    budget=st.integers(3000, 40000),
    rel_tol=st.floats(1e-7, 1e-2),
)
def test_trace_rows_and_estimate_match_the_definition_bit_for_bit(
        offset, pol, block_size, stride, window, min_samples, budget, rel_tol):
    if block_size < 1000:
        budget //= 10  # keep the one-block-at-a-time reference quick
    rule = StoppingRule(window=window, rel_tol=rel_tol, min_samples=min(min_samples, budget))
    report = run(halton_source(offset), pol, F_X1, budget, rule, trace_stride=stride,
                 block_size=block_size)
    trace, final = _reference_run(halton_source(offset), pol, F_X1, budget, rule, stride,
                                  block_size)
    assert report.N_used == trace["m"][-1]
    assert repr(report.trace) == repr(trace)  # repr keeps every bit, signed zeros too
    assert _bits(report.final_estimate) == _bits(final)


def test_run_derives_trace_estimates_only_when_the_trace_is_read(monkeypatch):
    ratio, ratios = mean_mod._ratio, []

    def counted(*args):
        ratios.append(args)
        return ratio(*args)

    monkeypatch.setattr(mean_mod, "_ratio", counted)
    rule = StoppingRule(rel_tol=1e-5)
    report = run(halton_source(1), DENSITY_POL, F_X1, 10**5, rule, trace_stride=7,
                 block_size=1024)
    reached = [m for m in mean_mod._checkpoints(10**5, rule) if m <= report.N_used]
    n_rows = (report.N_used - 1) // 7 + 1  # every 7th point before the stop, and the stop
    assert n_rows > 10 * len(reached)
    assert len(ratios) == len(reached) + 1  # each checkpoint, and the final estimate
    assert len(report.trace["m"]) == n_rows
    assert len(ratios) == len(reached) + 1 + n_rows
    report.trace_rows()
    assert len(ratios) == len(reached) + 1 + n_rows  # the derived trace is kept


def test_report_serialization_round_trip():
    report = run(halton_source(0), constant_policy(), F_X1, 2000,
                 StoppingRule(min_samples=2000))
    rows = report.trace_rows()
    assert len(rows) == len(report.trace["m"])


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(window=1)
    with pytest.raises(ValueError):
        StoppingRule(rel_tol=0.0)
    with pytest.raises(ValueError):
        StoppingRule(degeneracy_threshold=1.5)
    with pytest.raises(ValueError):
        StoppingRule(min_samples=0)


@pytest.mark.parametrize("field, value", [
    ("window", 2.5),
    ("window", True),
    ("window", "8"),
    ("min_samples", 1000.0),
    ("min_samples", False),
    ("rel_tol", math.nan),
    ("rel_tol", math.inf),
    ("rel_tol", -1e-4),
    ("rel_tol", True),
    ("degeneracy_threshold", math.nan),
])
def test_stopping_rule_rejects_values_that_fail_late_or_never_stop(field, value):
    with pytest.raises(ValueError, match=field):
        StoppingRule(**{field: value})


RUN_COUNTS = {"budget": 5000, "trace_stride": 1000, "block_size": 4096}
BLOCKED_COUNTS = {"total": 10**5, "n_blocks": 8}


@pytest.mark.parametrize("name, value", [
    ("budget", 5000.0),
    ("budget", True),
    ("budget", "5000"),
    ("trace_stride", True),
    ("trace_stride", 10.0),
    ("trace_stride", 0),
    ("block_size", 4096.0),
    ("block_size", -1),
    ("total", 10.0**5),
    ("total", True),
    ("n_blocks", 8.0),
    ("n_blocks", False),
    ("n_blocks", 0),
])
def test_run_and_run_blocked_reject_non_integer_counts(name, value):
    fn, counts = (run, RUN_COUNTS) if name in RUN_COUNTS else (run_blocked, BLOCKED_COUNTS)
    with pytest.raises(ValueError, match=name):
        fn(halton_source(0), constant_policy(), F_X1, **dict(counts, **{name: value}))


def test_stopping_rule_accepts_numpy_scalars():
    rule = StoppingRule(window=np.int64(4), rel_tol=np.float64(1e-3),
                        min_samples=np.int32(56))
    report = run(halton_source(1), constant_policy(), F_X1, 200, rule, trace_stride=7)
    assert report.N_used <= 200
