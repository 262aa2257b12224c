"""Streaming self-normalized mean engine.

The accumulator keeps the weighted sum of evaluations, the weight sum
(the empirical partition function), and the sum of absolute weights,
all under compensated (Kahan-Babuska-Neumaier) summation.  The estimate
is their ratio, declared degenerate instead of divided when the weight
sum has cancelled below ``delta`` times the absolute-weight sum, so no
NaN or infinity can ever leak out of a run; ``delta`` exceeds 2^-40,
above the rounding of a pairwise sum.

``run`` drives a source/policy/function triple through a finite budget,
records a trace row at each stopping checkpoint, and stops on a
window-Cauchy criterion, persistent degeneracy, or budget exhaustion.
``run_blocked`` merges disjoint index blocks accumulated independently,
deterministically: sources and policies are pure, accumulators are
single-writer, and ``merge`` is the only cross-block operation.  Both
share one chunk loop, which evaluates batches of whole blocks; a
checkpoint inside a block reads the accumulator a stop there returns.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyAccumulator, NonFiniteInput, ValidationError, as_count, as_number

__all__ = [
    "DEGENERATE",
    "Degenerate",
    "MeanAccumulator",
    "StoppingRule",
    "ConvergenceReport",
    "merge",
    "run",
    "run_blocked",
]

TRACE_COLUMNS = ("m", "re_num", "im_num", "re_den", "im_den", "re_est", "im_est", "den_ratio",
                 "spread", "tolerance")


class Degenerate:
    """Marker value: the normalization cancelled below threshold."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DEGENERATE"


DEGENERATE = Degenerate()


def _kbn_add(total: float, carry: float, value: float) -> tuple[float, float]:
    t = total + value
    if abs(total) >= abs(value):
        carry += (total - t) + value
    else:
        carry += (value - t) + total
    return t, carry


def _den_ratio(den: complex, aw: float) -> float:
    return abs(den) / aw if aw > 0.0 else 0.0


# The least degeneracy threshold, 2^-40 (8192 units of 2^-53): a pairwise
# sum of up to 2^63 terms is off by at most about 80 units times the
# absolute-weight sum (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 4), so a weight sum above this share of it is not noise.
_DELTA_FLOOR = 2.0 ** -40


def _ratio(num: complex, den: complex, aw: float, delta: float):
    """``num / den``, or ``DEGENERATE`` when ``|den| < delta * aw``.

    The division is done by scaled conjugation rather than the libm
    complex quotient so that a numerator that is an exact real multiple
    of the denominator divides out exactly.  ``delta`` is above
    ``_DELTA_FLOOR``, so ``|den / aw|^2`` cannot underflow.
    """
    if aw <= 0.0 or abs(den) < delta * aw:
        return DEGENERATE
    nr, ni = num.real / aw, num.imag / aw
    dr, di = den.real / aw, den.imag / aw
    norm = dr * dr + di * di
    return complex((nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm)


class MeanAccumulator:
    """Running numerator/denominator pair of the self-normalized mean.

    Components are stored as compensated real sums: ``numerator`` is
    ``sum(w_n * f(x_n))``, ``denominator`` is ``sum(w_n)``, and
    ``abs_weight_sum`` is ``sum(|w_n|)`` (always >= |denominator|).
    """

    __slots__ = ("_nr", "_ni", "_nrc", "_nic", "_dr", "_di", "_drc", "_dic",
                 "_aw", "_awc", "count")

    def __init__(self):
        self._nr = self._ni = self._nrc = self._nic = 0.0
        self._dr = self._di = self._drc = self._dic = 0.0
        self._aw = self._awc = 0.0
        self.count = 0

    @property
    def numerator(self) -> complex:
        return complex(self._nr + self._nrc, self._ni + self._nic)

    @property
    def denominator(self) -> complex:
        return complex(self._dr + self._drc, self._di + self._dic)

    @property
    def abs_weight_sum(self) -> float:
        return self._aw + self._awc

    @property
    def den_ratio(self) -> float:
        """|denominator| / abs_weight_sum, the conditioning of the
        empirical partition function (0 for an all-zero weight stream)."""
        return _den_ratio(self.denominator, self.abs_weight_sum)

    def add_block(self, weights: np.ndarray, values: np.ndarray) -> "MeanAccumulator":
        """Accumulate a block of terms: pairwise block sums folded in as
        single compensated addends."""
        if np.ndim(weights) != 1 or np.shape(weights) != np.shape(values):
            raise ValidationError(
                "values", f"shape {np.shape(values)} and weights shape {np.shape(weights)} "
                "do not match; expected two (m,) arrays"
            )
        if not np.isfinite(weights).all():
            raise NonFiniteInput("non-finite weight in block")
        if not np.isfinite(values).all():
            raise NonFiniteInput("non-finite function value in block")
        # Finite terms can still overflow; that is the error below, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            sums = (np.sum(np.multiply(weights, values)), np.sum(weights),
                    np.sum(np.abs(weights)))
        if not np.isfinite(sums).all():
            raise NonFiniteInput("block sums overflow: weights or values too large")
        self._fold(*sums, len(weights))
        return self

    def _fold(self, num, den, aw, count: int) -> None:
        """Fold one block's sums in as single compensated addends; if a
        running total would overflow, raise ``NonFiniteInput`` and keep the
        accumulator as it was."""
        num, den = complex(num), complex(den)
        totals = (
            _kbn_add(self._nr, self._nrc, num.real), _kbn_add(self._ni, self._nic, num.imag),
            _kbn_add(self._dr, self._drc, den.real), _kbn_add(self._di, self._dic, den.imag),
            _kbn_add(self._aw, self._awc, float(aw)))
        if not all(math.isfinite(total + carry) for total, carry in totals):
            raise NonFiniteInput("running totals overflow: weights or values too large")
        ((self._nr, self._nrc), (self._ni, self._nic), (self._dr, self._drc),
         (self._di, self._dic), (self._aw, self._awc)) = totals
        self.count += count

    def estimate(self, delta: float = 1e-8):
        """The normalized mean, or ``DEGENERATE`` when the weight sum has
        cancelled below ``delta`` times the absolute-weight sum; ``delta``
        lies in (2^-40, 1), like the stopping rule's threshold."""
        delta = as_number("delta", delta, _DELTA_FLOOR, 1.0)
        if self.count == 0:
            raise EmptyAccumulator("no terms accumulated yet")
        return _ratio(self.numerator, self.denominator, self.abs_weight_sum, delta)

    def copy(self) -> "MeanAccumulator":
        out = MeanAccumulator()
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        return out


def merge(a: MeanAccumulator, b: MeanAccumulator) -> MeanAccumulator:
    """Combine accumulators built from disjoint index blocks of the same
    source/policy/function triple: ``b``'s totals, then its carries, folded
    into a copy of ``a`` as compensated addends.  ``NonFiniteInput`` if a
    combined total overflows."""
    out = a.copy()
    out._fold(complex(b._nr, b._ni), complex(b._dr, b._di), b._aw, b.count)
    out._fold(complex(b._nrc, b._nic), complex(b._drc, b._dic), b._awc, 0)
    return out


@dataclass(frozen=True)
class StoppingRule:
    """Finite stopping criterion for the infinite mean.

    The window counts checkpoints, which the rule alone places: every
    ``max(1, min_samples // window)`` points up to ``min_samples``, then
    at ratio ``2 ** (1 / window)``.  ``window`` consecutive checkpoint estimates
    pairwise within ``rel_tol * (1 + |last|)`` stop the run as converged;
    ``window`` consecutive degenerate checkpoints stop it as degenerate.
    Nothing stops before ``min_samples``.  ``degeneracy_threshold`` lies in
    (2^-40, 1): below 2^-40 a weight sum can be rounding noise.
    """

    window: int = 8
    rel_tol: float = 1e-4
    min_samples: int = 1000
    degeneracy_threshold: float = 1e-8

    def __post_init__(self):
        # numpy scalars pass; plain ints and floats are stored.
        checked = {
            "window": as_count("window", self.window, 2),
            "rel_tol": as_number("rel_tol", self.rel_tol, 0.0),
            "min_samples": as_count("min_samples", self.min_samples, 1),
            "degeneracy_threshold": as_number(
                "degeneracy_threshold", self.degeneracy_threshold, _DELTA_FLOOR, 1.0),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


@dataclass
class ConvergenceReport:
    """Outcome of a finite-budget run.

    The trace keeps one row per checkpoint the run reached, with the
    estimate, window spread and tolerance the run computed there; see
    :attr:`trace`.
    """

    final_estimate: complex | Degenerate
    stop_reason: str  # "window-cauchy" | "budget-exhausted" | "degenerate"
    N_used: int
    _columns: tuple[list, ...] = field(repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "window-cauchy"

    @property
    def degenerate(self) -> bool:
        return self.final_estimate is DEGENERATE

    @property
    def den_ratio(self) -> float:
        """``den_ratio`` of the final state."""
        _, _, dens, aws, *_ = self._columns
        return _den_ratio(dens[-1], aws[-1])

    @functools.cached_property
    def trace(self) -> dict[str, list]:
        """Rows as columns ``m``, ``numerator``, ``denominator``,
        ``estimate`` (None where degenerate), ``den_ratio``, ``spread`` (the
        window's largest pairwise distance) and ``tolerance``
        (``rel_tol * (1 + |estimate|)``), one entry per checkpoint reached
        after ``m`` terms; the last is the final state.  ``spread`` and
        ``tolerance`` are None where the window was not full, ``m`` was
        below ``min_samples`` or the window held a degenerate estimate."""
        ms, nums, dens, aws, ests, spreads, tols = self._columns
        return {
            "m": list(ms),
            "numerator": list(nums),
            "denominator": list(dens),
            "estimate": list(ests),
            "den_ratio": [_den_ratio(den, aw) for den, aw in zip(dens, aws)],
            "spread": list(spreads),
            "tolerance": list(tols),
        }

    def trace_rows(self) -> list[tuple]:
        """Trace as rows under :data:`TRACE_COLUMNS`; a None leaves its
        cells empty."""
        t = self.trace
        return [(m, repr(num.real), repr(num.imag), repr(den.real), repr(den.imag),
                 *(("", "") if est is None else (repr(est.real), repr(est.imag))),
                 repr(ratio), *("" if x is None else repr(x) for x in (spread, tol)))
                for m, num, den, est, ratio, spread, tol in zip(*t.values())]

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            writer.writerows(self.trace_rows())


def _checkpoints(budget: int, rule: StoppingRule) -> list[int]:
    """Stopping checkpoints of a run, increasing and ending at ``budget``.

    Linear up to ``min_samples`` (so a full window exists there) and
    geometric afterwards (so the window always spans a fixed ratio of the
    history rather than a vanishing slice of it).
    """
    lin = max(1, rule.min_samples // rule.window)
    checks = list(range(lin, rule.min_samples, lin)) + [rule.min_samples]
    growth = 2.0 ** (1.0 / rule.window)
    m = rule.min_samples
    while m < budget:
        m = min(budget, max(m + 1, math.ceil(m * growth)))
        checks.append(m)
    return checks


def _block_sums(terms: np.ndarray, block_size: int) -> list:
    """``np.sum`` of each ``block_size`` slice of ``terms`` (the last may be
    short), bit for bit as row sums of the whole blocks."""
    k = len(terms) // block_size
    sums = terms[:k * block_size].reshape(k, block_size).sum(axis=1).tolist()
    if len(terms) % block_size:
        sums.append(np.sum(terms[k * block_size:]))
    return sums


# Points per batch: as many whole blocks as fit, at least one.
_BATCH_POINTS = 16384


def _rank(policy, func) -> int:
    """The number of coordinates a run reads per point."""
    return max(int(getattr(policy, "rank", 0)), int(func.rank), 1)


def _weights(policy, points: np.ndarray, start: int) -> np.ndarray:
    """The policy's weights for a block, one per point."""
    w = np.asarray(policy.weights(points, start_index=start))
    if w.shape != (len(points),):
        kind = getattr(policy, "kind", type(policy).__name__)
        raise ValidationError(
            "policy", f"{kind} policy returned weights of shape {w.shape} for {len(points)} "
            f"points; expected ({len(points)},)"
        )
    return w


def _accumulate(source, policy, func, lo: int, hi: int, block_size: int, buf: np.ndarray,
                marks=(), observe=None) -> MeanAccumulator:
    """Accumulate points ``lo..hi-1`` in blocks of ``block_size`` counted from
    ``lo``, each folded in as ``add_block`` would; a batch's points are a view
    of ``buf``, sized for ``max(_BATCH_POINTS, block_size)`` points or ``hi - lo``.
    At each of the sorted ``marks``, ``observe(m, acc)`` reads the accumulator
    of the points before ``m``, and a true return ends the walk, returning it.
    A batch never runs past the block holding the next mark, so its marks lie
    in its last block; one inside that block reads a copy of the committed
    accumulator with the block's prefix added by ``add_block``, which is what
    a stop there returns.

    At a block's end the policy's declared facts stand in for sums they fix:
    a ``nonnegative`` policy's absolute-weight sum is its weight sum, and a
    ``unit`` policy's weight sum is the block length and, for float64
    values, its weighted sum the sum of the values.  Each keeps the bits of
    the sum it replaces, up to the sign of a zero weight sum, which folds
    onto the running total as +0.0; a policy that declares neither, or
    lacks the attributes, gets all three sums."""
    rank = _rank(policy, func)
    nonnegative = getattr(policy, "nonnegative", False)
    unit = getattr(policy, "unit", False)
    batch = max(1, _BATCH_POINTS // block_size) * block_size
    acc = MeanAccumulator()
    start = lo
    while start < hi:
        i = bisect.bisect_right(marks, start)
        mark = marks[i] if i < len(marks) else hi
        # Up to the end of the block holding the next mark.
        end = min(start + batch, mark + (lo - mark) % block_size, hi)
        k = bisect.bisect_left(marks, end)  # marks[i:k] lie inside the last block
        n = end - start
        pts = source.block(start, end, rank, buf)
        w = _weights(policy, pts, start)
        v = np.asarray(func.eval_block(pts))
        real_unit = unit and v.dtype == np.float64
        # A non-finite term or sum is an error only before the stop, where
        # add_block raises; until then its sums are formed in silence.
        with np.errstate(over="ignore", invalid="ignore"):
            nums = _block_sums(v if real_unit else np.multiply(w, v), block_size)
            if unit:
                dens = [float(min(block_size, n - a)) for a in range(0, n, block_size)]
            else:
                dens = _block_sums(w, block_size)
            aws = dens if nonnegative else _block_sums(np.abs(w), block_size)
        finite = np.isfinite((nums, dens, aws)).all(axis=0).tolist()
        for j, a in enumerate(range(0, n, block_size)):
            if a + block_size >= n:  # the last block
                for m in marks[i:k]:
                    seen = acc.copy().add_block(w[a:m - start], v[a:m - start])
                    if observe(m, seen):
                        return seen
            if finite[j]:
                acc._fold(nums[j], dens[j], aws[j], min(block_size, n - a))
            else:  # raises the error add_block names
                acc.add_block(w[a:a + block_size], v[a:a + block_size])
        if k < len(marks) and marks[k] == end and observe(end, acc):
            return acc
        start = end
        del w, v  # so the next batch reuses their memory instead of regrowing the heap
    return acc


def run(
    source,
    policy,
    func,
    budget: int,
    rule: StoppingRule | None = None,
    block_size: int = 4096,
) -> ConvergenceReport:
    """Accumulate ``weight(x_n) * func(x_n)`` for ``n = 0..N-1`` and report
    the self-normalized estimate.

    Parameters
    ----------
    source, policy, func
        A point source, a weight policy, and a finite-rank function; the
        run reads ``max(policy.rank, func.rank, 1)`` coordinates per point.
        The function and the policy must be pointwise: a point's value and
        weight may not depend on the other points evaluated with it.
    budget
        Maximum number of points (must be >= ``rule.min_samples``).
    rule
        Stopping rule; defaults to ``StoppingRule()``.  Its checkpoints are
        the only points where the run looks at its sums: each reached
        checkpoint is one trace row, with the estimate and, where the rule
        compared a full window, the window spread and tolerance that
        decided whether to stop there.  The last row is the final state.
        For a denser trace, raise ``window`` or ``min_samples``.
    block_size
        Points per block, the only partition of the sum: runs with equal
        block size that stop at the same point are reproducible bit for
        bit, and different block sizes agree to compensated-summation
        accuracy; at 65536, a run to its budget sums as ``run_blocked``
        with one block does.  Points are evaluated in batches of whole
        blocks (up to 16384 points, or one larger block) that never run past
        the block holding the next checkpoint.  A checkpoint inside a block
        reads the committed blocks with the block's prefix added as
        ``add_block`` adds it, which is what a stop there keeps, so every
        trace row is the final state of a run stopped at its ``m``; it never
        splits the block.  The at most ``block_size - 1`` terms after a stop
        are evaluated and discarded.
    """
    rule = rule if rule is not None else StoppingRule()
    budget = as_count("budget", budget, 1)
    block_size = as_count("block_size", block_size, 1)
    if budget < rule.min_samples:
        raise ValidationError("budget", f"{budget} is below min_samples {rule.min_samples}")
    delta = rule.degeneracy_threshold

    # Trace rows: m, numerator, denominator, absolute-weight sum, estimate,
    # window spread and tolerance.
    rows: list[tuple] = []
    # Estimates at the last ``window`` checkpoints; None where degenerate.
    recent: deque[complex | None] = deque(maxlen=rule.window)
    stop_reason = None

    def observe(m, acc) -> bool:
        """Record the checkpoint at ``m``; true where the run stops."""
        nonlocal stop_reason
        num, den, aw = acc.numerator, acc.denominator, acc.abs_weight_sum
        est = _ratio(num, den, aw, delta)
        est = None if est is DEGENERATE else est
        recent.append(est)
        spread = tolerance = None
        if m >= rule.min_samples and len(recent) == rule.window:
            if all(e is None for e in recent):
                stop_reason = "degenerate"
            elif None not in recent:
                spread = max(abs(a - b) for a, b in itertools.combinations(recent, 2))
                tolerance = rule.rel_tol * (1.0 + abs(est))
                if tolerance >= spread:
                    stop_reason = "window-cauchy"
        rows.append((m, num, den, aw, est, spread, tolerance))
        return stop_reason is not None

    buf = np.empty(_rank(policy, func) * min(max(_BATCH_POINTS, block_size), budget))
    acc = _accumulate(source, policy, func, 0, budget, block_size, buf,
                      _checkpoints(budget, rule), observe)

    n_used = acc.count
    final = acc.estimate(delta)
    if final is DEGENERATE:
        stop_reason = "degenerate"
    elif stop_reason is None:
        stop_reason = "budget-exhausted"
    return ConvergenceReport(final, stop_reason, n_used, tuple(map(list, zip(*rows))))


def run_blocked(
    source,
    policy,
    func,
    total: int,
    n_blocks: int,
) -> MeanAccumulator:
    """Accumulate ``total`` points as ``n_blocks`` disjoint index blocks,
    each in 65536-point blocks from its first index, and merge them in a
    deterministic pairwise tree; the block-parallel evaluation contract."""
    n_blocks = as_count("n_blocks", n_blocks, 1)
    total = as_count("total", total, n_blocks)
    edges = [round(i * total / n_blocks) for i in range(n_blocks + 1)]
    buf = np.empty(_rank(policy, func) * min(1 << 16, total))
    accs = [_accumulate(source, policy, func, lo, hi, 1 << 16, buf)
            for lo, hi in zip(edges[:-1], edges[1:])]
    while len(accs) > 1:
        paired = [merge(accs[i], accs[i + 1]) for i in range(0, len(accs) - 1, 2)]
        if len(accs) % 2:
            paired.append(accs[-1])
        accs = paired
    return accs[0]
