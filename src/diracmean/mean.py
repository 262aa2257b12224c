"""Streaming self-normalized mean engine.

The accumulator keeps the weighted sum of evaluations, the weight sum
(the empirical partition function), and the sum of absolute weights,
all under compensated (Kahan-Babuska-Neumaier) summation.  The estimate
is their ratio, declared degenerate instead of divided when the weight
sum has cancelled below ``delta`` times the absolute-weight sum, so no
NaN or infinity can ever leak out of a run.

``run`` drives a source/policy/function triple through a finite budget,
records a trace of raw partial sums, and stops on a window-Cauchy
criterion, persistent degeneracy, or budget exhaustion.  ``run_blocked``
merges disjoint index blocks accumulated independently, deterministically:
sources and policies are pure, accumulators are single-writer, and
``merge`` is the only cross-block operation.  Both share one chunk loop,
which reads each batch of whole blocks in one ordered pass over its marks
and block ends.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
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

TRACE_COLUMNS = ("m", "re_num", "im_num", "re_den", "im_den", "re_est", "im_est", "den_ratio")


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


def _ratio(num: complex, den: complex, aw: float, delta: float):
    """``num / den``, or ``DEGENERATE`` when ``|den| < delta * aw``.

    The division is done by scaled conjugation rather than the libm
    complex quotient so that a numerator that is an exact real multiple
    of the denominator divides out exactly.  When ``|den / aw|^2`` would
    underflow, both are first divided by the larger denominator component.
    """
    if aw <= 0.0 or abs(den) < delta * aw:
        return DEGENERATE
    nr, ni = num.real / aw, num.imag / aw
    dr, di = den.real / aw, den.imag / aw
    norm = dr * dr + di * di
    if norm < sys.float_info.min:
        scale = max(abs(dr), abs(di))
        nr, ni, dr, di = nr / scale, ni / scale, dr / scale, di / scale
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
        lies in (0, 1), like the stopping rule's threshold."""
        delta = as_number("delta", delta, 0.0, 1.0)
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
    Nothing stops before ``min_samples``.
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
                "degeneracy_threshold", self.degeneracy_threshold, 0.0, 1.0),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


@dataclass
class ConvergenceReport:
    """Outcome of a finite-budget run.

    The trace is kept as the raw columns of its snapshots: the point count,
    numerator, denominator and absolute-weight sum.  Estimates and
    ``den_ratio`` are derived from them, under the run's degeneracy
    threshold, only when :attr:`trace`, :meth:`trace_rows` or
    :meth:`write_csv` reads them.
    """

    final_estimate: complex | Degenerate
    stop_reason: str  # "window-cauchy" | "budget-exhausted" | "degenerate"
    N_used: int
    _columns: tuple[list[int], list[complex], list[complex], list[float]] = field(repr=False)
    _delta: float = field(repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "window-cauchy"

    @property
    def degenerate(self) -> bool:
        return self.final_estimate is DEGENERATE

    @property
    def den_ratio(self) -> float:
        """``den_ratio`` of the final state, without deriving the trace."""
        _, _, dens, aws = self._columns
        return _den_ratio(dens[-1], aws[-1])

    @functools.cached_property
    def trace(self) -> dict[str, list]:
        """Snapshots as columns ``m``, ``numerator``, ``denominator``,
        ``estimate`` (None where degenerate) and ``den_ratio``, one entry per
        snapshot after ``m`` terms; the last is the final state.  Derived on
        the first read and kept."""
        ms, nums, dens, aws = self._columns
        ests = [_ratio(num, den, aw, self._delta) for num, den, aw in zip(nums, dens, aws)]
        return {
            "m": list(ms),
            "numerator": list(nums),
            "denominator": list(dens),
            "estimate": [None if e is DEGENERATE else e for e in ests],
            "den_ratio": [_den_ratio(den, aw) for den, aw in zip(dens, aws)],
        }

    def trace_rows(self) -> list[tuple]:
        """Trace as rows under :data:`TRACE_COLUMNS`; degenerate snapshots
        leave the estimate cells empty."""
        t = self.trace
        return [(m, repr(num.real), repr(num.imag), repr(den.real), repr(den.imag),
                 "" if est is None else repr(est.real), "" if est is None else repr(est.imag),
                 repr(ratio))
                for m, num, den, est, ratio in zip(t["m"], t["numerator"], t["denominator"],
                                                   t["estimate"], t["den_ratio"])]

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


def _term_sums(terms: np.ndarray, block_size: int, cuts: np.ndarray) -> tuple[list, list]:
    """``np.sum`` of each ``block_size`` slice of ``terms`` (the last may be
    short), bit for bit as row sums of the whole blocks; and the sums of its
    segments ``[cuts[0], cuts[1])``, ``[cuts[2], cuts[3])``, ... by ``reduceat``."""
    k = len(terms) // block_size
    sums = terms[:k * block_size].reshape(k, block_size).sum(axis=1).tolist()
    if len(terms) % block_size:
        sums.append(np.sum(terms[k * block_size:]))
    segments = np.add.reduceat(terms[:cuts[-1]], cuts[:-1])[::2].tolist() if len(cuts) else []
    return sums, segments


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
                marks=lambda start, end: (), stops=(), observe=None) -> MeanAccumulator:
    """Accumulate points ``lo..hi-1`` in blocks of ``block_size`` counted from
    ``lo``, each folded in as ``add_block`` would; a batch's points are a view
    of ``buf``, sized for ``max(_BATCH_POINTS, block_size)`` points or ``hi - lo``.
    ``marks(start, end)`` gives a batch's marks in ``(start, end]``; at each,
    ``observe(m, num, den, aw)`` reads the sums of the points before ``m``, and
    a true return ends the walk there.  A batch never runs past the block
    holding the next of the sorted ``stops``, the marks where it may."""
    rank = _rank(policy, func)
    batch = max(1, _BATCH_POINTS // block_size) * block_size
    acc = MeanAccumulator()
    start = lo
    while start < hi:
        i = bisect.bisect_right(stops, start)
        stop = stops[i] if i < len(stops) else hi
        # Up to the end of the block holding the next stop.
        end = min(start + batch, stop + (lo - stop) % block_size, hi)
        n = end - start
        pts = source.block(start, end, rank, buf)
        w = _weights(policy, pts, start)
        v = func.eval_block(pts)
        marked = {m - start for m in marks(start, end)}
        # The batch's marks and block ends as offsets; a mark inside a block
        # reads the sum of the segment from the one before it.
        events = sorted(marked.union(range(block_size, n, block_size), (n,)))
        cuts = np.array([(p, o) for p, o in zip([0] + events, events) if o < n and o % block_size],
                        dtype=np.intp).ravel()
        # A non-finite term or sum is an error only before the stop, where
        # add_block raises; until then its sums are formed in silence.
        with np.errstate(over="ignore", invalid="ignore"):
            nums, num_segs = _term_sums(np.multiply(w, v), block_size, cuts)
            dens, den_segs = _term_sums(w, block_size, cuts)
            aws, aw_segs = _term_sums(np.abs(w), block_size, cuts)
        finite = np.isfinite((nums, dens, aws)).all(axis=0).tolist()
        segments = zip(num_segs, den_segs, aw_segs)
        # One ordered pass: a block end folds the block in, and a mark inside
        # a block reads the committed totals plus the block's running prefix
        # of segment sums.  The prefix starts at +0.0, which can change only
        # the sign of a zero, and adding the totals (never -0.0) undoes that.
        com_num, com_den, com_aw = acc.numerator, acc.denominator, acc.abs_weight_sum
        pre_num = pre_den = pre_aw = 0.0
        for o in events:
            j = (o - 1) // block_size  # the block holding point o - 1
            inner = o < n and o % block_size
            if inner:
                seg_num, seg_den, seg_aw = next(segments)
                pre_num, pre_den, pre_aw = pre_num + seg_num, pre_den + seg_den, pre_aw + seg_aw
                num = com_num + complex(pre_num)
                den, aw = com_den + complex(pre_den), com_aw + pre_aw
            else:
                if finite[j]:
                    acc._fold(nums[j], dens[j], aws[j], o - j * block_size)
                else:  # raises the error add_block names
                    acc.add_block(w[j * block_size:o], v[j * block_size:o])
                num, den, aw = com_num, com_den, com_aw = (
                    acc.numerator, acc.denominator, acc.abs_weight_sum)
                pre_num = pre_den = pre_aw = 0.0
                if o not in marked:
                    continue
            if observe(start + o, num, den, aw):
                if inner:  # commit just the block's prefix
                    acc.add_block(w[j * block_size:o], v[j * block_size:o])
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
    trace_stride: int = 1000,
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
        Stopping rule; defaults to ``StoppingRule()``.
    trace_stride
        Record a trace snapshot every this many points (the final state
        is always recorded).  Snapshots are only recorded: the stopping
        window counts the rule's checkpoints, so the stride does not decide
        the stop.  Snapshots and checkpoints inside a block are read from the
        block's prefix sums; they never split it.  A snapshot keeps its raw
        sums only; the report derives its estimate and ``den_ratio`` when
        the trace is read, so only checkpoints divide during the run.
    block_size
        Points per block, the only partition of the sum: runs with equal
        block size that stop at the same point are reproducible bit for
        bit, whatever the trace stride, and different block sizes agree to
        compensated-summation accuracy; at 65536, a run to its budget sums
        as ``run_blocked`` with one block does.  Points are evaluated in
        batches of whole blocks (up to 16384 points, or one larger block)
        that never run past the block holding the next checkpoint where the
        run can stop, each read in one ordered pass over its snapshots,
        checkpoints and block ends.  A stop inside a block commits only the
        block's prefix; the at most ``block_size - 1`` terms after the stop
        are evaluated and discarded.
    """
    rule = rule if rule is not None else StoppingRule()
    budget = as_count("budget", budget, 1)
    trace_stride = as_count("trace_stride", trace_stride, 1)
    block_size = as_count("block_size", block_size, 1)
    if budget < rule.min_samples:
        raise ValidationError("budget", f"{budget} is below min_samples {rule.min_samples}")
    delta = rule.degeneracy_threshold

    # Raw trace rows: m, numerator, denominator and absolute-weight sum.
    rows: list[tuple[int, complex, complex, float]] = []
    # Estimates at the last ``window`` checkpoints; None where degenerate.
    recent: deque[complex | None] = deque(maxlen=rule.window)
    checkpoints = _checkpoints(budget, rule)
    checks = set(checkpoints)
    stop_reason = None

    def observe(m, num, den, aw) -> bool:
        """Record a trace row or checkpoint at ``m``; true where the run stops."""
        nonlocal stop_reason
        if m % trace_stride == 0 or m == budget:
            rows.append((m, num, den, aw))
        if m not in checks:
            return False
        est = _ratio(num, den, aw, delta)
        recent.append(None if est is DEGENERATE else est)
        if m < rule.min_samples or len(recent) < rule.window:
            return False
        if all(e is None for e in recent):
            stop_reason = "degenerate"
        elif None not in recent and rule.rel_tol * (1.0 + abs(est)) >= max(
                abs(a - b) for a, b in itertools.combinations(recent, 2)):
            stop_reason = "window-cauchy"
        return stop_reason is not None

    def marks(start, end):
        """The checkpoints and trace rows in ``(start, end]``."""
        return [*checkpoints[bisect.bisect_right(checkpoints, start):
                             bisect.bisect_right(checkpoints, end)],
                *range(start - start % trace_stride + trace_stride, end + 1, trace_stride)]

    # The run can stop only at a checkpoint with a full window, from min_samples on.
    stops = [m for m in checkpoints[rule.window - 1:] if m >= rule.min_samples]
    buf = np.empty(_rank(policy, func) * min(max(_BATCH_POINTS, block_size), budget))
    acc = _accumulate(source, policy, func, 0, budget, block_size, buf, marks, stops, observe)

    n_used = acc.count
    final = acc.estimate(delta)
    if final is DEGENERATE:
        stop_reason = "degenerate"
    elif stop_reason is None:
        stop_reason = "budget-exhausted"
    if rows and rows[-1][0] == n_used:
        rows.pop()
    rows.append((n_used, acc.numerator, acc.denominator, acc.abs_weight_sum))
    return ConvergenceReport(final, stop_reason, n_used, tuple(map(list, zip(*rows))), delta)


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
