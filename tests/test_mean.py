"""Accumulator algebra, degeneracy guard, stopping, merge, reproducibility."""

import itertools
import math
import tracemalloc
from collections import deque

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


class CyclingWeights(WeightPolicy):
    """Weights 1, -1, 1e-170, repeating with the point index."""

    kind = "cycling"

    def weights(self, points, start_index=0):
        n = np.arange(start_index, start_index + len(points)) % 3
        return np.array([1.0, -1.0, 1e-170])[n]


@pytest.mark.parametrize("path", ["estimate", "run"])
def test_threshold_below_the_resolution_floor_is_refused(path):
    # The run's weight sum rounds to 9e-170 against an exact 1e-167, which a
    # threshold of 1e-200 would divide by; at 1e-12 both sums are degenerate.
    # A threshold must exceed 2^-40.
    if path == "estimate":
        acc = MeanAccumulator().add_block(np.array([1.0, -1.0, 1e-170]),
                                          np.array([1.0, 2.0, 3.0]))
        assert acc.estimate(1e-12) is DEGENERATE
        with pytest.raises(ValidationError, match="^delta: "):
            acc.estimate(1e-200)
    else:
        def cycling(threshold):
            return run(halton_source(1), CyclingWeights(), F_X1, 3000,
                       StoppingRule(min_samples=3000, degeneracy_threshold=threshold))

        assert cycling(1e-12).stop_reason == "degenerate"
        with pytest.raises(ValidationError, match="^degeneracy_threshold: "):
            cycling(1e-200)
    StoppingRule(degeneracy_threshold=math.nextafter(2.0 ** -40, 1.0))
    with pytest.raises(ValidationError, match="^degeneracy_threshold: "):
        StoppingRule(degeneracy_threshold=2.0 ** -40)


def test_empty_accumulator_raises():
    with pytest.raises(EmptyAccumulator):
        MeanAccumulator().estimate()


@pytest.mark.parametrize("delta", [0.0, -1.0, 1.0, math.nan, math.inf, True, 1e-200])
def test_estimate_rejects_delta_outside_the_unit_interval(delta):
    cancelled = MeanAccumulator().add_block(np.array([1.0, -1.0]), np.array([1.0, 2.0]))
    assert cancelled.estimate(1e-8) is DEGENERATE
    with pytest.raises(ValidationError,
                       match=r"^delta: must be a finite number in \(9.09495e-13, 1\)"):
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
    assert {m % 2 for m in trace["m"]} == {0, 1}  # checkpoints every 125 points
    for m, est, den_ratio, num, den in zip(trace["m"], trace["estimate"], trace["den_ratio"],
                                           trace["numerator"], trace["denominator"]):
        assert (est is None) == (m % 2 == 0)
        assert math.isfinite(den_ratio)
        assert math.isfinite(abs(num))
        assert math.isfinite(abs(den))


def test_budget_below_min_samples_rejected():
    with pytest.raises(ValueError):
        run(halton_source(0), constant_policy(), F_ONE, 10)


def test_trace_is_strictly_increasing_and_strided():
    # Checkpoints, and so trace rows, every min_samples // window points.
    report = run(halton_source(0), constant_policy(), F_X1, 5000,
                 StoppingRule(window=5, min_samples=5000))
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
    rule = StoppingRule(window=20, min_samples=10**4)  # a trace row every 500 points
    plain = run(halton_source(0), pol, F_X1, 10**4, rule)
    scaled = run(halton_source(0), Scaled(pol, c), F_X1, 10**4, rule)
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
    ms, nums, dens, aws, *_ = report._columns
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


@pytest.mark.parametrize("pol, rule, budget, block_size, reason, n_used", [
    (DENSITY_POL, StoppingRule(min_samples=STOP_RULE.min_samples, rel_tol=1e-4), 2 * 10**5,
     1024, "window-cauchy", 6566),
    (DENSITY_POL, StoppingRule(min_samples=STOP_RULE.min_samples, rel_tol=1e-13), 2 * 10**5,
     1024, "budget-exhausted", 2 * 10**5),
    # Checkpoints every min_samples // window = 125 points.
    (constant_policy(), StoppingRule(rel_tol=1e-3), 60000, 4096, "window-cauchy", 1190),
    # Alternating weights cancel exactly at every even m and never at an odd
    # one, so no window of checkpoints is all degenerate: the run reaches the
    # budget, and its parity decides the outcome.
    (ALTERNATING_POL, StoppingRule(), 10000, 4096, "degenerate", 10000),
    (ALTERNATING_POL, StoppingRule(), 10001, 4096, "budget-exhausted", 10001),
], ids=["0.0001-window-cauchy", "1e-13-budget-exhausted", "default-min-samples",
        "alternating-even", "alternating-odd"])
def test_checkpoints_decide_the_stop_reason_and_points_used(pol, rule, budget, block_size,
                                                            reason, n_used):
    report = run(halton_source(1), pol, F_X1, budget, rule, block_size=block_size)
    assert (report.stop_reason, report.N_used) == (reason, n_used)
    if reason == "window-cauchy":
        assert report.N_used % block_size != 0  # the stop fell inside a block


def _bits(estimate):
    return estimate if estimate is DEGENERATE else (estimate.real.hex(), estimate.imag.hex())


class Recording:
    """Point source that records the index range of every ``block`` call."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def block(self, start, stop, rank, out=None):
        self.calls.append((start, stop))
        return self.inner.block(start, stop, rank, out)


def assert_whole_blocks(calls, block_size, budget, n_used, rule):
    """Calls cover whole blocks, contiguous from 0, at most 16384 points each
    (or one larger block), the last ending with the block that holds n_used;
    a checkpoint strictly inside a call lies in its last block."""
    assert calls[0][0] == 0
    assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
    marks = mean_mod._checkpoints(budget, rule)
    for start, stop in calls:
        assert start % block_size == 0 and (stop % block_size == 0 or stop == budget)
        assert 0 < stop - start <= max(1, 16384 // block_size) * block_size
        last = start + (stop - start - 1) // block_size * block_size
        assert all(m > last for m in marks if start < m < stop), (start, stop)
    assert calls[-1][1] == min(-(-n_used // block_size) * block_size, budget)


def test_blocks_are_the_only_partition():
    src = Recording(halton_source(1))
    report = run(src, constant_policy(), F_X1, 10**5, STOP_RULE, block_size=1024)
    assert_whole_blocks(src.calls, 1024, 10**5, report.N_used, STOP_RULE)
    assert src.calls[-1][0] < report.N_used <= src.calls[-1][1]


@pytest.mark.parametrize("pol, rule, budget, block_size", [
    (DENSITY_POL, StoppingRule(rel_tol=1e-5), 10**5, 4096),
    (DENSITY_POL, StoppingRule(min_samples=10**5), 10**5, 5000),
    (ALTERNATING_POL, StoppingRule(), 10**4, 7),
    (DENSITY_POL, StoppingRule(min_samples=1000, rel_tol=1e-5), 2 * 10**5, 70000),
    (DENSITY_POL, StoppingRule(min_samples=300, rel_tol=1e-3), 3000, 1),
    # Checkpoints every 2500 points before the run can stop.
    (DENSITY_POL, StoppingRule(min_samples=20000, rel_tol=1e-5), 10**5, 1024),
], ids=["geometric-checkpoints", "fixed-budget", "degenerate", "huge-blocks", "single-points",
        "min-samples-spans-many-blocks"])
def test_batches_are_whole_blocks_up_to_the_stopping_block(pol, rule, budget, block_size):
    src = Recording(halton_source(1))
    report = run(src, pol, F_X1, budget, rule, block_size=block_size)
    assert_whole_blocks(src.calls, block_size, budget, report.N_used, rule)


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
    # Checkpoints every 800 points, most of them inside a 4096-point block.
    rule = StoppingRule(window=25, min_samples=20000)
    report = run(halton_source(1), pol, F_X1, 20000, rule, block_size=4096)
    pts = halton_source(1).block(0, 20000, 1)
    w, v = pol.weights(pts), F_X1.eval_block(pts)
    trace = report.trace
    assert trace["m"] == list(range(800, 20001, 800))
    for m, num, den, est, den_ratio in zip(trace["m"], trace["numerator"], trace["denominator"],
                                           trace["estimate"], trace["den_ratio"]):
        acc = MeanAccumulator().add_block(w[:m], v[:m])
        for got, want in ((num, acc.numerator), (den, acc.denominator),
                          (est, acc.estimate())):
            assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(den_ratio - acc.den_ratio) <= 1e-12 * acc.den_ratio


def test_last_trace_row_is_the_final_state():
    src, pol = halton_source(1), density_policy(lambda x: 1.0 + x[:, 0], 1)
    report = run(src, pol, F_X1, 2 * 10**5, STOP_RULE, block_size=1024)
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


# The chunk loop skips the block sums a policy's declared facts fix: Σ|w| for
# a nonnegative policy, and Σw (and, for real values, Σw·v) for a unit one.
class Plain:
    """Another policy seen through ``rank`` and ``weights`` only, so the
    chunk loop forms all three block sums of its weights."""

    def __init__(self, inner):
        self.inner, self.rank = inner, inner.rank

    def weights(self, pts, start_index=0):
        return self.inner.weights(pts, start_index)


F_EXP_IX1 = cylinder_function(1, lambda x: np.exp(1j * x[:, 0]), "exp(i x1)")
# Each declared policy with a function, and the block sums it still forms.
DECLARED = {
    "constant": (constant_policy(), F_X1X2, 1),
    "constant-complex-values": (constant_policy(), F_EXP_IX1, 1),
    "constant-float32-values": (
        constant_policy(), cylinder_function(1, lambda x: x[:, 0].astype(np.float32)), 1),
    "density": (DENSITY_POL, F_X1, 2),
    "boltzmann": (boltzmann_policy(WALK_ACTION), F_X1X2, 2),
    "density-with-negative-zeros": (
        density_policy(lambda x: np.where(x[:, 0] < 0.3, -0.0, 1.0 + x[:, 0]), 1), F_X1, 2),
}


def _rows_bits(report):
    return [tuple(map(repr, row)) for row in zip(*report._columns)]


def _fields_bits(acc):
    return [repr(getattr(acc, name)) for name in MeanAccumulator.__slots__]


@pytest.mark.parametrize("block_size", [1, 4096, 5000])
@pytest.mark.parametrize("case", DECLARED)
def test_declared_policies_keep_the_bits_of_all_three_sums(monkeypatch, case, block_size):
    pol, func, sums = DECLARED[case]
    calls = []

    def counted(terms, size):
        calls.append(len(terms))
        return block_sums(terms, size)

    block_sums = mean_mod._block_sums
    monkeypatch.setattr(mean_mod, "_block_sums", counted)
    # Checkpoints every 125 points to 1000, then geometric, so most fall
    # inside a block of 4096 or 5000; some cases stop there, some at 40000.
    rule = StoppingRule(rel_tol=3e-4)

    def walk(p):
        calls.clear()
        return run(weyl_source(index_offset=1), p, func, 40000, rule, block_size), len(calls)

    (got, got_calls), (want, want_calls) = walk(pol), walk(Plain(pol))
    # The fast path ran: it formed fewer sums per batch than the general one.
    assert got_calls * 3 == want_calls * sums
    assert (_bits(got.final_estimate), got.N_used, got.stop_reason) == \
        (_bits(want.final_estimate), want.N_used, want.stop_reason)
    assert _rows_bits(got) == _rows_bits(want)
    assert any(m % block_size for m in got.trace["m"]) == (block_size > 1)
    if block_size == 1:
        blocked = [run_blocked(pseudorandom_source(2), p, func, 140001, 3)
                   for p in (pol, Plain(pol))]
        assert _fields_bits(blocked[0]) == _fields_bits(blocked[1])


def _infinite_at(index, base):
    """``base`` with the value ``inf`` at the point ``index`` of the Halton
    source with offset 1, whose first coordinates are all distinct."""
    target = halton_source(1).block(index, index + 1, 1)[0, 0]
    return lambda x: np.where(x[:, 0] == target, np.inf, base(x))


# Point 6000 lies in the middle of the second 4096-point block.
X1_INF = cylinder_function(1, _infinite_at(6000, lambda x: x[:, 0]), "x1, inf at 6000")
NONFINITE = {
    "constant": (constant_policy(), X1_INF, "function value"),
    "density": (DENSITY_POL, X1_INF, "function value"),
    "boltzmann": (boltzmann_policy(WALK_ACTION),
                  cylinder_function(2, _infinite_at(6000, lambda x: x[:, 0] * x[:, 1])),
                  "function value"),
    "infinite-density": (density_policy(_infinite_at(6000, lambda x: 1.0 + x[:, 0]), 1), F_X1,
                         "weight"),
}


@pytest.mark.parametrize("case", NONFINITE)
def test_a_nonfinite_term_inside_a_block_raises_as_through_all_three_sums(case):
    pol, func, what = NONFINITE[case]
    errors = []
    for p in (pol, Plain(pol)):
        for call in (lambda: run(halton_source(1), p, func, 20000,
                                 StoppingRule(min_samples=20000), block_size=4096),
                     lambda: run_blocked(halton_source(1), p, func, 20000, 2)):
            with pytest.raises(NonFiniteInput) as info:
                call()
            errors.append(str(info.value))
    assert errors[:2] == errors[2:]
    assert errors[0] == f"non-finite {what} in block"


def _reference_run(src, pol, func, budget, rule, block_size):
    """``run``'s trace columns and final estimate from the definition: whole
    blocks added with ``add_block``, a checkpoint inside a block read from a
    copy of the accumulator with the block's prefix added, a stop returning
    what its checkpoint read, estimates from ``_ratio``, and the window's
    spread and tolerance where it is full, from ``min_samples`` on, and free
    of degenerate estimates."""
    delta = rule.degeneracy_threshold
    marks = mean_mod._checkpoints(budget, rule)
    pts = src.block(0, budget, 1)
    w, v = pol.weights(pts), func.eval_block(pts)
    rows, recent = [], deque(maxlen=rule.window)

    def observe(m, acc):
        num, den, aw = acc.numerator, acc.denominator, acc.abs_weight_sum
        est = mean_mod._ratio(num, den, aw, delta)
        est = None if est is DEGENERATE else est
        recent.append(est)
        full = m >= rule.min_samples and len(recent) == rule.window
        spread = tol = None
        if full and None not in recent:
            spread = max(abs(a - b) for a, b in itertools.combinations(recent, 2))
            tol = rule.rel_tol * (1.0 + abs(est))
        rows.append((m, num, den, aw, est, spread, tol))
        return full and (all(e is None for e in recent) or spread is not None and spread <= tol)

    def walk():
        acc = MeanAccumulator()
        for lo in range(0, budget, block_size):
            hi = min(lo + block_size, budget)
            for m in (m for m in marks if lo < m < hi):
                seen = acc.copy().add_block(w[lo:m], v[lo:m])
                if observe(m, seen):
                    return seen
            acc.add_block(w[lo:hi], v[lo:hi])
            if hi in marks and observe(hi, acc):
                return acc
        return acc

    acc = walk()
    assert rows[-1][0] == acc.count
    return {
        "m": [r[0] for r in rows],
        "numerator": [r[1] for r in rows],
        "denominator": [r[2] for r in rows],
        "estimate": [r[4] for r in rows],
        "den_ratio": [abs(den) / aw if aw > 0.0 else 0.0 for _, _, den, aw, *_ in rows],
        "spread": [r[5] for r in rows],
        "tolerance": [r[6] for r in rows],
    }, acc.estimate(delta)


class SignedWeights:
    """Real weights of both signs, with -0.0 where the cosine is small."""

    rank = 1

    def weights(self, pts, start_index=0):
        w = np.cos(7.0 * pts[:, 0])
        return np.where(np.abs(w) < 0.05, -0.0, w)


TRACE_POLICIES = st.sampled_from([DENSITY_POL, SignedWeights(), ALTERNATING_POL,
                                  oscillatory_policy(quadratic_action([[2.0]])),
                                  oscillatory_policy(quadratic_action([[40.0]]))])
TRACE_BLOCK_SIZES = st.sampled_from([1, 3, 1000, 4096, 5000, 20000])


@settings(max_examples=40, deadline=None)
@given(
    offset=st.integers(0, 10**6),
    pol=TRACE_POLICIES,
    block_size=TRACE_BLOCK_SIZES,
    window=st.integers(2, 8),
    min_samples=st.sampled_from([1, 7, 56, 1000, 3000]),
    budget=st.integers(3000, 40000),
    rel_tol=st.floats(1e-7, 1e-2),
)
def test_trace_rows_and_estimate_match_the_definition_bit_for_bit(
        offset, pol, block_size, window, min_samples, budget, rel_tol):
    if block_size < 1000:
        budget //= 10  # keep the one-block-at-a-time reference quick
    rule = StoppingRule(window=window, rel_tol=rel_tol, min_samples=min(min_samples, budget))
    report = run(halton_source(offset), pol, F_X1, budget, rule, block_size=block_size)
    trace, final = _reference_run(halton_source(offset), pol, F_X1, budget, rule, block_size)
    assert report.N_used == trace["m"][-1]
    assert repr(report.trace) == repr(trace)  # repr keeps every bit, signed zeros too
    assert _bits(report.final_estimate) == _bits(final)


@settings(max_examples=20, deadline=None)
@given(offset=st.integers(0, 10**6), pol=TRACE_POLICIES, block_size=TRACE_BLOCK_SIZES,
       rel_tol=st.floats(1e-6, 1e-3))
def test_every_trace_row_is_the_final_state_of_a_run_stopped_there(
        offset, pol, block_size, rel_tol):
    budget = 40000 if block_size >= 1000 else 2000  # one-point blocks are slow
    trace = run(halton_source(offset), pol, F_X1, budget,
                StoppingRule(rel_tol=rel_tol, min_samples=1000), block_size=block_size).trace
    for row, m in enumerate(trace["m"]):
        final = run(halton_source(offset), pol, F_X1, m, StoppingRule(min_samples=m),
                    block_size=block_size).trace
        for name in ("numerator", "denominator", "den_ratio"):
            assert repr(trace[name][row]) == repr(final[name][-1]), (m, name)


def test_run_computes_one_estimate_per_reached_checkpoint(monkeypatch, tmp_path):
    ratio, ratios = mean_mod._ratio, []

    def counted(*args):
        ratios.append(args)
        return ratio(*args)

    monkeypatch.setattr(mean_mod, "_ratio", counted)
    rule = StoppingRule(rel_tol=1e-5)
    report = run(halton_source(1), DENSITY_POL, F_X1, 10**5, rule, block_size=1024)
    reached = [m for m in mean_mod._checkpoints(10**5, rule) if m <= report.N_used]
    assert report.stop_reason == "window-cauchy" and len(reached) > rule.window
    assert len(ratios) == len(reached) + 1  # each checkpoint, and the final estimate
    report.trace_rows()
    report.write_csv(tmp_path / "trace.csv")
    assert len(ratios) == len(reached) + 1  # reading the trace divides nothing


@pytest.mark.parametrize("rule, budget", [
    (StoppingRule(rel_tol=1e-5), 10**5),  # stops window-cauchy inside a block
    (StoppingRule(rel_tol=1e-13, min_samples=3000), 20000),  # runs to the budget
    (StoppingRule(window=3, min_samples=7), 3000),  # linear checkpoints every 2 points
], ids=["window-cauchy", "budget-exhausted", "short-window"])
def test_trace_rows_are_the_reached_checkpoints(rule, budget):
    report = run(halton_source(1), DENSITY_POL, F_X1, budget, rule, block_size=1024)
    reached = [m for m in mean_mod._checkpoints(budget, rule) if m < report.N_used]
    assert report.trace["m"] == reached + [report.N_used]


class CancelsAt:
    """Weights 1, then -1, on the two halves of the first ``n`` points and 0
    after them: every sum from ``n`` points on has cancelled exactly."""

    rank = 1

    def __init__(self, n):
        self.n = n

    def weights(self, pts, start_index=0):
        i = np.arange(start_index, start_index + len(pts))
        return np.where(i < self.n // 2, 1.0, np.where(i < self.n, -1.0, 0.0))


def test_trace_says_why_the_run_stopped():
    converged = run(halton_source(1), DENSITY_POL, F_X1, 10**5, StoppingRule(rel_tol=1e-5),
                    block_size=1024).trace
    assert converged["spread"][-1] <= converged["tolerance"][-1]
    earlier = [(s, t) for s, t in zip(converged["spread"][:-1], converged["tolerance"][:-1])
               if s is not None]
    assert earlier and all(s > t for s, t in earlier)
    # Before min_samples no window is compared, so nothing is filled in.
    assert all(s is None for m, s in zip(converged["m"], converged["spread"]) if m < 1000)

    rule = StoppingRule()
    degenerate = run(halton_source(1), CancelsAt(3000), F_X1, 10**4, rule)
    trace = degenerate.trace
    assert degenerate.stop_reason == "degenerate" and degenerate.N_used < 10**4
    assert trace["estimate"][-rule.window:] == [None] * rule.window
    assert trace["estimate"][-rule.window - 1] is not None
    # A window holding a degenerate estimate has no spread.
    assert trace["spread"][-rule.window:] == [None] * rule.window


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


RUN_COUNTS = {"budget": 5000, "block_size": 4096}
BLOCKED_COUNTS = {"total": 10**5, "n_blocks": 8}


@pytest.mark.parametrize("name, value", [
    ("budget", 5000.0),
    ("budget", True),
    ("budget", "5000"),
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
    report = run(halton_source(1), constant_policy(), F_X1, 200, rule)
    assert report.N_used <= 200
