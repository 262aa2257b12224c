"""Accumulator algebra, degeneracy guard, stopping, merge, reproducibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmean import (
    DEGENERATE,
    MeanAccumulator,
    StoppingRule,
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
)
from diracmean.errors import EmptyAccumulator, NonFiniteInput

F_X1 = cylinder_function(1, lambda x: x[:, 0], "x1")
F_ONE = cylinder_function(0, 1.0, "one")


def filled(pairs):
    acc = MeanAccumulator()
    for w, v in pairs:
        acc.add(w, v)
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


def test_empty_accumulator_raises():
    with pytest.raises(EmptyAccumulator):
        MeanAccumulator().estimate()


def test_nonfinite_inputs_rejected():
    acc = MeanAccumulator()
    with pytest.raises(NonFiniteInput):
        acc.add(float("nan"), 1.0)
    with pytest.raises(NonFiniteInput):
        acc.add(1.0, float("inf"))
    with pytest.raises(NonFiniteInput):
        acc.add_block(np.array([1.0, np.nan]), np.array([1.0, 1.0]))


def test_accumulate_functional_form_and_invariants():
    acc = MeanAccumulator()
    acc.add(1.0, 2.0)
    acc.add(-0.5j, 4.0)
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
    for point in report.trace:
        assert point.estimate is None
        assert math.isfinite(point.den_ratio)
        assert math.isfinite(abs(point.numerator))
        assert math.isfinite(abs(point.denominator))


def test_budget_below_min_samples_rejected():
    with pytest.raises(ValueError):
        run(halton_source(0), constant_policy(), F_ONE, 10)


def test_trace_is_strictly_increasing_and_strided():
    report = run(halton_source(0), constant_policy(), F_X1, 5000,
                 StoppingRule(min_samples=5000), trace_stride=1000)
    ms = [p.m for p in report.trace]
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
    assert len(plain.trace) == len(scaled.trace)
    for a, b in zip(plain.trace, scaled.trace):
        assert abs(a.estimate - b.estimate) <= 1e-12 * abs(a.estimate)


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


def test_same_block_size_is_bit_identical():
    pol = density_policy(lambda x: 1.0 + x[:, 0], 1)
    rule = StoppingRule(min_samples=2 * 10**4)
    a = run(pseudorandom_source(5), pol, F_X1, 2 * 10**4, rule, block_size=2048)
    b = run(pseudorandom_source(5), pol, F_X1, 2 * 10**4, rule, block_size=2048)
    assert [(p.m, p.numerator, p.denominator) for p in a.trace] == \
        [(p.m, p.numerator, p.denominator) for p in b.trace]
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


def test_blocks_are_the_only_partition():
    calls = []

    class Recording:
        def __init__(self, inner):
            self.inner = inner

        def block(self, start, stop, rank):
            calls.append((start, stop))
            return self.inner.block(start, stop, rank)

    report = run(Recording(halton_source(1)), constant_policy(), F_X1, 10**5, STOP_RULE,
                 trace_stride=7, block_size=1024)
    assert calls == [(a, min(a + 1024, 10**5)) for a in range(0, calls[-1][1], 1024)]
    assert calls[-1][0] < report.N_used <= calls[-1][1]


def test_trace_rows_match_filled_accumulators():
    pol = oscillatory_policy(quadratic_action([[2.0]]))
    report = run(halton_source(1), pol, F_X1, 20000, StoppingRule(min_samples=20000),
                 trace_stride=777, block_size=4096)
    pts = halton_source(1).block(0, 20000, 1)
    w, v = pol.weights(pts), F_X1.eval_block(pts)
    assert [p.m for p in report.trace[:-1]] == list(range(777, 20000, 777))
    for p in report.trace:
        acc = MeanAccumulator().add_block(w[:p.m], v[:p.m])
        for got, want in ((p.numerator, acc.numerator), (p.denominator, acc.denominator),
                          (p.estimate, acc.estimate())):
            assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(p.den_ratio - acc.den_ratio) <= 1e-12 * acc.den_ratio


def test_last_trace_row_is_the_final_state():
    src, pol = halton_source(1), density_policy(lambda x: 1.0 + x[:, 0], 1)
    report = run(src, pol, F_X1, 2 * 10**5, STOP_RULE, trace_stride=7, block_size=1024)
    last = report.trace[-1]
    acc = MeanAccumulator()
    for start in range(0, report.N_used, 1024):
        pts = src.block(start, min(start + 1024, report.N_used), 1)
        acc.add_block(pol.weights(pts, start_index=start), F_X1.eval_block(pts))
    assert last.m == report.N_used
    assert last.estimate == report.final_estimate == acc.estimate()
    assert (last.numerator, last.denominator, last.den_ratio) == \
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


def test_report_serialization_round_trip():
    report = run(halton_source(0), constant_policy(), F_X1, 2000,
                 StoppingRule(min_samples=2000))
    rows = report.trace_rows()
    assert len(rows) == len(report.trace)
    summary = report.summary_dict()
    assert summary["stop_reason"] == "budget-exhausted"
    assert summary["N_used"] == 2000
    assert summary["final_estimate"]["re"] == report.final_estimate.real


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
