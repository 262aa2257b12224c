"""The error vocabulary: one ValidationError naming its argument, and the
run-time conditions a caller can act on."""

import math

import numpy as np
import pytest

import diracmean as dm
from diracmean.errors import DiracMeanError, ValidationError

RUN_TIME = {
    "CertificationError", "CylinderViolation", "DegenerateOracle", "EmptyAccumulator",
    "InsufficientSample", "NegativeDensity", "NoConvergence", "NonFiniteInput", "ParseError",
    "QuantileDomain", "WeightOverflow",
}


def test_exported_exception_classes_are_the_vocabulary():
    exported = {name for name, value in vars(dm).items()
                if isinstance(value, type) and issubclass(value, BaseException)}
    assert exported == RUN_TIME | {"DiracMeanError", "ValidationError"}
    assert all(issubclass(getattr(dm, name), DiracMeanError) for name in exported)


def test_validation_error_is_a_value_error_naming_its_field():
    exc = ValidationError("budget", "must be an integer >= 1, got 1.5")
    assert isinstance(exc, ValueError) and isinstance(exc, DiracMeanError)
    assert (exc.field, exc.message) == ("budget", "must be an integer >= 1, got 1.5")
    assert str(exc) == "budget: must be an integer >= 1, got 1.5"


F_X1 = dm.cylinder_function(1, lambda x: x[:, 0], "x1")
ACT = dm.quadratic_action([[1.0]])
REG = dm.normal_quantiles([1.0])
RULE = dm.StoppingRule(min_samples=1000)
PULLBACK = dm.pullback_source(dm.halton_source(1), dm.normal_quantiles())


class ColumnWeights:
    rank = 1

    def weights(self, pts, start_index=0):
        return np.ones((len(pts), 1))


def _oscillatory(**kwargs):
    args = dict(base=dm.halton_source(1), action=ACT, regularizer=REG, func=F_X1,
                budget=2000, skip_certification=True)
    return dm.oscillatory_mean(**dict(args, **kwargs))


def _run(**kwargs):
    args = dict(source=dm.halton_source(1), policy=dm.constant_policy(), func=F_X1,
                budget=2000, rule=RULE)
    return dm.run(**dict(args, **kwargs))


# At least one bad argument per public constructor and function that checks any.
# A case's id is its label and its field, so cases come and go without
# renaming the others.  The numbered labels are the positions the cases had
# when ids were positional, kept so that their ids stay as they were.
BAD_ARGUMENTS = [
    ("0", "matrix", lambda: dm.quadratic_action([[1.0, 0.2], [0.1, 1.0]])),
    ("1", "matrix", lambda: dm.quadratic_action(np.eye(17))),
    ("2", "linear", lambda: dm.quadratic_action([[1.0]], [1.0, 2.0])),
    ("3", "constant", lambda: dm.quadratic_action([[1.0]], constant=math.nan)),
    ("5", "widths", lambda: dm.normal_quantiles([])),
    ("6", "regularizer", lambda: _oscillatory(action=dm.quadratic_action(np.eye(2)))),
    ("7", "route", lambda: _oscillatory(route="sideways")),
    ("9", "action", lambda: dm.fresnel_limit_scan(dm.halton_source(1),
                                                  dm.quadratic_action([[0.0]]), [1.0, 2.0])),
    ("10", "widths", lambda: dm.fresnel_limit_scan(dm.halton_source(1), ACT, [2.0, 1.0])),
    ("11", "rank", lambda: dm.cylinder_function(-1, 1.0)),
    ("12", "base", lambda: dm.cylinder_function(1, 2.0)),
    ("13", "points", lambda: F_X1.eval_block(np.zeros((2, 0)))),
    ("14", "base", lambda: dm.cylinder_function(1, lambda x: x, "column").eval_block(np.zeros((2, 1)))),
    ("15", "ranks", lambda: dm.hierarchy_certify(dm.halton_source(0), (2, 1), 1000)),
    ("16", "bins_per_axis", lambda: dm.hierarchy_certify(dm.halton_source(0), [1, 2], 1000,
                                                         0.999, [4])),
    ("17", "values", lambda: dm.MeanAccumulator().add_block(np.ones(2), np.ones(3))),
    ("18", "delta", lambda: dm.MeanAccumulator().add_block(np.ones(1), np.ones(1)).estimate(1.0)),
    ("19", "window", lambda: dm.StoppingRule(window=1)),
    ("20", "rel_tol", lambda: dm.StoppingRule(rel_tol=0.0)),
    ("21", "min_samples", lambda: dm.StoppingRule(min_samples=0)),
    ("22", "degeneracy_threshold", lambda: dm.StoppingRule(degeneracy_threshold=1.5)),
    ("23", "budget", lambda: _run(budget=999)),
    ("25", "block_size", lambda: _run(block_size=512.0)),
    ("26", "policy", lambda: _run(policy=ColumnWeights())),
    ("27", "total", lambda: dm.run_blocked(dm.halton_source(1), dm.constant_policy(), F_X1, 4, 8)),
    ("28", "n_blocks", lambda: dm.run_blocked(dm.halton_source(1), dm.constant_policy(), F_X1, 8, 0)),
    ("29", "domain", lambda: dm.tensor_quadrature(lambda x: x[:, 0], ())),
    ("30", "domain", lambda: dm.tensor_quadrature(lambda x: x[:, 0], ((1.0, 0.0),))),
    ("32", "moment", lambda: dm.complex_gaussian_moment(1.0, 1.0, 1)),
    ("33", "curvature", lambda: dm.complex_gaussian_moment(math.inf, 1.0, 2)),
    ("36", "index_offset", lambda: dm.halton_source(3).block(2**63 - 2, 2**63 - 1, 2)),
    ("37", "start", lambda: dm.halton_source().block(-1, 2, 1)),
    ("38", "rank", lambda: dm.halton_source().block(0, 2, 0)),
    ("39", "start", lambda: dm.halton_source().block(-1, 0, 1)[0]),
    ("40", "rank", lambda: dm.halton_source().block(0, 1, 0)[0]),
    ("41", "index_offset", lambda: dm.halton_source(-1)),
    ("42", "alphas", lambda: dm.weyl_source(["0.5"])),
    ("43", "alphas", lambda: dm.weyl_source(["abc"])),
    ("44", "alphas", lambda: dm.weyl_source(["0.6180339887498948482"]).block(0, 2, 2)),
    ("46", "rate", lambda: dm.convergent_source(0.5, 1.0)),
    ("47", "widths", lambda: dm.normal_quantiles([1.0, 0.0])),
    ("48", "half_width", lambda: dm.box_quantiles(-1.0)),
    ("49", "base", lambda: dm.pullback_source(PULLBACK, dm.normal_quantiles())),
    ("50", "source", lambda: dm.hierarchy_certify(PULLBACK, [1], 100, bins_per_axis=[4])),
    ("51", "bins_per_axis", lambda: dm.hierarchy_certify(dm.halton_source(), [1], 100,
                                                         bins_per_axis=[1])),
    ("52", "level", lambda: dm.hierarchy_certify(dm.halton_source(), [1], 100, 1.5, [4])),
    ("53", "ranks", lambda: dm.hierarchy_certify(dm.halton_source(), [0], 100, bins_per_axis=[4])),
    ("54", "sample_count", lambda: dm.hierarchy_certify(dm.halton_source(), [1], 2.5,
                                                        bins_per_axis=[4])),
    ("55", "rank", lambda: dm.density_policy(lambda x: x[:, 0], 0)),
    ("56", "index_phase", lambda: dm.oscillatory_policy(ACT, math.nan)),
    ("58", "matrix", lambda: dm.quadratic_action([["x"]])),
    ("59", "matrix", lambda: dm.quadratic_action([[1.0], [1.0, 2.0]])),
    ("60", "linear", lambda: dm.quadratic_action([[1.0]], linear=["y"])),
    ("61", "target", lambda: dm.convergent_source(math.nan, 0.5)),
    ("62", "offset", lambda: dm.convergent_source(0.5, 0.5, math.inf)),
    ("63", "target", lambda: dm.convergent_source([], 0.5)),
    ("equidistribution-negative", "sample_count",
     lambda: dm.hierarchy_certify(dm.halton_source(), [1], -1, bins_per_axis=[4])),
    ("hierarchy-negative", "sample_count",
     lambda: dm.hierarchy_certify(dm.halton_source(), (1, 2), -5)),
    ("hierarchy-scalar-ranks", "ranks",
     lambda: dm.hierarchy_certify(dm.halton_source(), 2, 1000)),
    ("oscillatory-box-regularizer", "regularizer",
     lambda: _oscillatory(regularizer=dm.box_quantiles(1.0))),
    ("oscillatory-uniform-regularizer", "regularizer",
     lambda: _oscillatory(regularizer=dm.uniform_quantiles())),
    ("policy-box-regularizer", "regularizer",
     lambda: dm.product_regularized_policy(dm.box_quantiles(1.0), ACT)),
    ("policy-uniform-regularizer", "regularizer",
     lambda: dm.product_regularized_policy(dm.uniform_quantiles(), ACT)),
    ("domain-rank-4", "domain",
     lambda: dm.normalized_expectation(lambda x: x[:, 0], lambda x: x[:, 0], ((0.0, 1.0),) * 4)),
]


@pytest.mark.parametrize("field, call", [case[1:] for case in BAD_ARGUMENTS],
                         ids=[f"{label}-{field}" for label, field, _ in BAD_ARGUMENTS])
def test_bad_argument_raises_validation_error_naming_it(field, call):
    with pytest.raises(ValidationError, match=rf"^{field}: ") as info:
        call()
    assert info.value.field == field


@pytest.mark.parametrize("field, call", [
    ("widths", lambda: dm.normal_quantiles([math.nan])),
    ("widths", lambda: dm.normal_quantiles(math.inf)),
    ("half_width", lambda: dm.box_quantiles([math.inf])),
    ("widths", lambda: dm.normal_quantiles([1.0, math.nan])),
    ("width", lambda: dm.complex_gaussian_moment(1.0, math.nan, 2)),
], ids=["normal-nan", "normal-inf", "box-inf", "regularizer-nan", "moment-nan"])
def test_non_finite_widths_are_rejected(field, call):
    with pytest.raises(ValidationError, match=rf"^{field}: must be a finite number > 0"):
        call()


@pytest.mark.parametrize("field, call", [
    ("index_offset", lambda: dm.halton_source(1.5)),
    ("index_offset", lambda: dm.weyl_source(index_offset=1.5)),
    ("seed", lambda: dm.pseudorandom_source(seed=1.5)),
    ("rank", lambda: dm.cylinder_function(1.5, lambda x: x[:, 0])),
    ("stop", lambda: dm.halton_source().block(0, 2.5, 1)),
    ("bins_per_axis", lambda: dm.hierarchy_certify(dm.halton_source(0), [1], 1000,
                                                   bins_per_axis=[4.5])),
    ("ranks", lambda: dm.hierarchy_certify(dm.halton_source(0), (1, 2.5), 1000)),
], ids=["halton-offset", "weyl-offset", "seed", "function-rank", "block-stop",
        "bins", "hierarchy"])
def test_non_integer_counts_are_rejected_not_truncated(field, call):
    with pytest.raises(ValidationError, match=rf"^{field}: must be an integer"):
        call()


def test_non_finite_matrix_is_reported_as_non_finite():
    with pytest.raises(ValidationError, match=r"^matrix: must be finite"):
        dm.quadratic_action([[math.nan]])


def test_numpy_integer_counts_still_pass():
    f = dm.cylinder_function(np.int32(1), lambda x: x[:, 0])
    assert type(f.rank) is int and f.rank == 1
    block = dm.halton_source(np.int64(1)).block(np.int64(0), np.int64(5), np.int64(2))
    assert np.array_equal(block, dm.halton_source(1).block(0, 5, 2))
    assert np.array_equal(dm.pseudorandom_source(np.uint32(3)).block(0, 5, 1),
                          dm.pseudorandom_source(3).block(0, 5, 1))


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["above", "below"])
def test_an_integer_beyond_the_float_range_is_not_a_finite_number(value):
    with pytest.raises(ValidationError, match=r"^rel_tol: must be a finite number"):
        dm.StoppingRule(rel_tol=value)
