"""Streaming self-normalized mean engine.

The accumulator keeps the weighted sum of evaluations, the weight sum
(the empirical partition function), and the sum of absolute weights,
all under compensated (Kahan-Babuska-Neumaier) summation.  The estimate
is their ratio, declared degenerate instead of divided when the weight
sum has cancelled below ``delta`` times the absolute-weight sum, so no
NaN or infinity can ever leak out of a run.

``run`` drives a source/policy/function triple through a finite budget
in vectorized chunks, records a trace, and stops on a window-Cauchy
criterion, persistent degeneracy, or budget exhaustion.  Disjoint index
blocks accumulated independently merge deterministically, which is the
whole parallelism contract: sources and policies are pure, accumulators
are single-writer, and ``merge`` is the only cross-block operation.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EmptyAccumulator, NonFiniteInput

__all__ = [
    "DEGENERATE",
    "Degenerate",
    "MeanAccumulator",
    "StoppingRule",
    "TracePoint",
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
    of the denominator divides out exactly.
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

    def add(self, weight: complex, value: complex) -> "MeanAccumulator":
        """Accumulate one term ``weight * value``."""
        w = complex(weight)
        v = complex(value)
        if not (math.isfinite(w.real) and math.isfinite(w.imag)
                and math.isfinite(v.real) and math.isfinite(v.imag)):
            raise NonFiniteInput(f"non-finite term: weight={weight!r}, value={value!r}")
        wv = w * v
        self._nr, self._nrc = _kbn_add(self._nr, self._nrc, wv.real)
        self._ni, self._nic = _kbn_add(self._ni, self._nic, wv.imag)
        self._dr, self._drc = _kbn_add(self._dr, self._drc, w.real)
        self._di, self._dic = _kbn_add(self._di, self._dic, w.imag)
        self._aw, self._awc = _kbn_add(self._aw, self._awc, abs(w))
        self.count += 1
        return self

    def add_block(self, weights: np.ndarray, values: np.ndarray) -> "MeanAccumulator":
        """Accumulate a block of terms: pairwise block sums folded in as
        single compensated addends."""
        if not np.isfinite(weights).all():
            raise NonFiniteInput("non-finite weight in block")
        if not np.isfinite(values).all():
            raise NonFiniteInput("non-finite function value in block")
        wv = np.multiply(weights, values)
        num = complex(np.sum(wv))
        den = complex(np.sum(weights))
        aw = float(np.sum(np.abs(weights)))
        self._nr, self._nrc = _kbn_add(self._nr, self._nrc, num.real)
        self._ni, self._nic = _kbn_add(self._ni, self._nic, num.imag)
        self._dr, self._drc = _kbn_add(self._dr, self._drc, den.real)
        self._di, self._dic = _kbn_add(self._di, self._dic, den.imag)
        self._aw, self._awc = _kbn_add(self._aw, self._awc, aw)
        self.count += len(weights)
        return self

    def estimate(self, delta: float = 1e-8):
        """The normalized mean, or ``DEGENERATE`` when the weight sum has
        cancelled below ``delta`` times the absolute-weight sum."""
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
    source/policy/function triple; componentwise compensated sums."""
    out = a.copy()
    for s, c in (("_nr", "_nrc"), ("_ni", "_nic"), ("_dr", "_drc"),
                 ("_di", "_dic"), ("_aw", "_awc")):
        total, carry = getattr(out, s), getattr(out, c)
        total, carry = _kbn_add(total, carry, getattr(b, s))
        total, carry = _kbn_add(total, carry, getattr(b, c))
        setattr(out, s, total)
        setattr(out, c, carry)
    out.count = a.count + b.count
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
        # numpy integers pass; plain ints are stored for deque/range.
        object.__setattr__(self, "window", _count("window", self.window, 2))
        if not _is_real(self.rel_tol) or not (0.0 < self.rel_tol < math.inf):
            raise ValueError(f"rel_tol must be a finite positive number, got {self.rel_tol!r}")
        object.__setattr__(self, "min_samples", _count("min_samples", self.min_samples))
        if not _is_real(self.degeneracy_threshold) or not (0.0 < self.degeneracy_threshold < 1.0):
            raise ValueError(
                f"degeneracy_threshold must lie in (0, 1), got {self.degeneracy_threshold!r}"
            )


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as a plain int; ``ValueError`` naming ``name`` unless it is
    an integer (not a bool) of at least ``least``."""
    if not _is_int(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class TracePoint:
    """Snapshot of the accumulator after ``m`` terms; ``estimate`` is
    None when the snapshot was degenerate."""

    m: int
    numerator: complex
    denominator: complex
    estimate: complex | None
    den_ratio: float


@dataclass
class ConvergenceReport:
    """Outcome of a finite-budget run."""

    trace: list[TracePoint]
    final_estimate: complex | Degenerate
    stop_reason: str  # "window-cauchy" | "budget-exhausted" | "degenerate"
    N_used: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "window-cauchy"

    @property
    def degenerate(self) -> bool:
        return self.final_estimate is DEGENERATE

    def trace_rows(self) -> list[tuple]:
        """Trace as rows under :data:`TRACE_COLUMNS`; degenerate snapshots
        leave the estimate cells empty."""
        rows = []
        for p in self.trace:
            est_re = "" if p.estimate is None else repr(p.estimate.real)
            est_im = "" if p.estimate is None else repr(p.estimate.imag)
            rows.append((p.m, repr(p.numerator.real), repr(p.numerator.imag),
                         repr(p.denominator.real), repr(p.denominator.imag),
                         est_re, est_im, repr(p.den_ratio)))
        return rows

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            writer.writerows(self.trace_rows())

    def summary_dict(self) -> dict:
        if self.degenerate:
            final = "degenerate"
        else:
            final = {"re": self.final_estimate.real, "im": self.final_estimate.imag}
        return {
            "final_estimate": final,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "N_used": self.N_used,
        }


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


def _prefix_sums(terms: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``sum(terms[:e])`` for each ``e`` of the increasing ``ends``, summed
    segment by segment between consecutive ends."""
    cuts = np.concatenate(([0], ends[:-1]))
    return np.cumsum(np.add.reduceat(terms[:ends[-1]], cuts))


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
    budget
        Maximum number of points (must be >= ``rule.min_samples``).
    rule
        Stopping rule; defaults to ``StoppingRule()``.
    trace_stride
        Record a trace snapshot every this many points (the final state
        is always recorded).  Snapshots are only recorded: the stopping
        window counts the rule's checkpoints, so the stride does not decide
        the stop.  Snapshots and checkpoints inside a block are read from the
        block's prefix sums; they never split it.
    block_size
        Points per evaluated block, the only partition of the sum: runs
        with equal block size that stop at the same point are
        reproducible bit for bit, whatever the trace stride, and different
        block sizes agree to compensated-summation accuracy.  A stop inside
        a block commits only the block's prefix up to the stopping point;
        the terms after it are evaluated and discarded.
    """
    rule = rule if rule is not None else StoppingRule()
    budget = _count("budget", budget)
    trace_stride = _count("trace_stride", trace_stride)
    block_size = _count("block_size", block_size)
    if budget < rule.min_samples:
        raise ValueError(
            f"budget {budget} is below min_samples {rule.min_samples}"
        )
    rank = max(int(getattr(policy, "rank", 0)), int(func.rank), 1)
    delta = rule.degeneracy_threshold

    acc = MeanAccumulator()
    trace: list[TracePoint] = []
    # Estimates at the last ``window`` checkpoints; None where degenerate.
    recent: deque[complex | None] = deque(maxlen=rule.window)
    checks = set(_checkpoints(budget, rule))
    marks = sorted(checks.union(range(trace_stride, budget + 1, trace_stride)))

    def observe(m: int, num: complex, den: complex, aw: float) -> str | None:
        """Record the snapshot after ``m`` terms; the stop reason, if any."""
        est = _ratio(num, den, aw, delta)
        est = None if est is DEGENERATE else est
        if m % trace_stride == 0 or m == budget:
            trace.append(TracePoint(m, num, den, est, _den_ratio(den, aw)))
        if m not in checks:
            return None
        recent.append(est)
        if m < rule.min_samples or len(recent) < rule.window:
            return None
        if all(e is None for e in recent):
            return "degenerate"
        if None not in recent:
            tol = rule.rel_tol * (1.0 + abs(est))
            spread = max(abs(a - b) for a, b in itertools.combinations(recent, 2))
            if spread <= tol:
                return "window-cauchy"
        return None

    stop_reason = None
    next_mark = 0
    for start in range(0, budget, block_size):
        stop = min(start + block_size, budget)
        pts = source.block(start, stop, rank)
        w = policy.weights(pts, start_index=start)
        v = func.eval_block(pts)
        keep = stop - start
        inner = bisect.bisect_left(marks, stop, next_mark)
        if inner > next_mark:
            # Snapshots at the marks inside the block: the committed totals
            # plus the block's prefix sums up to each mark.
            inside = marks[next_mark:inner]
            ends = np.asarray(inside) - start
            nums = acc.numerator + _prefix_sums(np.multiply(w, v), ends)
            dens = acc.denominator + _prefix_sums(w, ends)
            aws = acc.abs_weight_sum + _prefix_sums(np.abs(w), ends)
            for m, num, den, aw in zip(inside, nums.tolist(), dens.tolist(), aws.tolist()):
                stop_reason = observe(m, num, den, aw)
                if stop_reason is not None:
                    keep = m - start
                    break
            next_mark = inner
        acc.add_block(w[:keep], v[:keep])
        if stop_reason is None and marks[next_mark] == stop:
            next_mark += 1
            stop_reason = observe(stop, acc.numerator, acc.denominator, acc.abs_weight_sum)
        if stop_reason is not None:
            break

    n_used = acc.count
    final = acc.estimate(delta)
    if final is DEGENERATE:
        stop_reason = "degenerate"
    elif stop_reason is None:
        stop_reason = "budget-exhausted"
    if trace and trace[-1].m == n_used:
        trace.pop()
    trace.append(TracePoint(n_used, acc.numerator, acc.denominator,
                            None if final is DEGENERATE else final, acc.den_ratio))
    return ConvergenceReport(trace, final, stop_reason, n_used)


def run_blocked(
    source,
    policy,
    func,
    total: int,
    n_blocks: int,
) -> MeanAccumulator:
    """Accumulate ``total`` points as ``n_blocks`` disjoint index blocks
    and merge them in a deterministic pairwise tree; the block-parallel
    evaluation contract."""
    total = _count("total", total)
    n_blocks = _count("n_blocks", n_blocks)
    if total < n_blocks:
        raise ValueError("need 1 <= n_blocks <= total")
    rank = max(int(getattr(policy, "rank", 0)), int(func.rank), 1)
    edges = [round(i * total / n_blocks) for i in range(n_blocks + 1)]
    accs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        acc = MeanAccumulator()
        for start in range(lo, hi, 1 << 16):
            stop = min(start + (1 << 16), hi)
            pts = source.block(start, stop, rank)
            acc.add_block(policy.weights(pts, start_index=start), func.eval_block(pts))
        accs.append(acc)
    while len(accs) > 1:
        paired = [merge(accs[i], accs[i + 1]) for i in range(0, len(accs) - 1, 2)]
        if len(accs) % 2:
            paired.append(accs[-1])
        accs = paired
    return accs[0]
