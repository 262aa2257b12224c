"""Finite-rank (cylinder) functions and per-rank source certification.

A cylinder function reads only its first ``rank`` coordinates, so its
mean over an infinite-dimensional source reduces to the finite-rank
pushforward: the engine truncates every point block at the declared
rank before evaluation, and the declaration itself is checkable by
perturbing the coordinate just beyond it.  Functions are evaluated on
blocks only (:meth:`CylinderFunction.eval_block`; one point is a
one-row block), and a source is certified on a strictly increasing
sequence of ranks standing in for a projector family growing to the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CylinderViolation, ValidationError, as_count
from .seq import UNIT_CUBE, PointSource

__all__ = [
    "CylinderFunction",
    "EquidistributionReport",
    "cylinder_function",
    "verify_cylinder",
    "hierarchy_certify",
]

# Points on which verify_cylinder perturbs the coordinate past the rank.
_PROBES = 16


@dataclass(frozen=True)
class CylinderFunction:
    """A function of the first ``rank`` coordinates of a point.

    ``base`` receives a ``(m, rank)`` array (column-major for source
    blocks) and returns ``(m,)`` values (possibly complex), each depending
    on its own row only; any other shape raises ``ValidationError``.  For
    ``rank == 0`` a plain number is accepted and the function is that
    constant.
    """

    rank: int
    base: Callable[[np.ndarray], np.ndarray] | complex | float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rank", as_count("rank", self.rank, 0))
        if self.rank > 0 and not callable(self.base):
            raise ValidationError("base", f"must be callable at rank {self.rank}")

    def eval_block(self, points: np.ndarray) -> np.ndarray:
        if points.ndim != 2 or points.shape[1] < self.rank:
            raise ValidationError(
                "points", f"must be a (m, {self.rank}) block or wider for "
                f"{self.label or 'function'}, got shape {points.shape}"
            )
        if self.rank == 0:
            const = self.base if not callable(self.base) else self.base(points[:, :0])
            return np.full(len(points), const)
        out = np.asarray(self.base(points[:, : self.rank]))
        if out.shape != (len(points),):
            raise ValidationError(
                "base", f"{self.label or 'function'} returned values of shape {out.shape} for "
                f"{len(points)} points; expected ({len(points)},)"
            )
        return out


def cylinder_function(rank: int, base, label: str = "") -> CylinderFunction:
    """Declare a function of the first ``rank`` coordinates."""
    return CylinderFunction(rank=rank, base=base, label=label)


def verify_cylinder(func: CylinderFunction) -> None:
    """Probe the declared rank: evaluate the raw base on points one
    coordinate wider than the rank and perturb that extra coordinate.

    A base that cannot evaluate wider points passes trivially (it cannot
    read beyond its rank); a base that evaluates them and changes value
    raises ``CylinderViolation``.
    """
    if func.rank == 0 or not callable(func.base):
        return
    rng = np.random.default_rng(0x1CEB00DA)
    pts = rng.random((_PROBES, func.rank + 1))
    perturbed = pts.copy()
    perturbed[:, -1] = rng.random(_PROBES)
    try:
        a = np.asarray(func.base(pts))
        b = np.asarray(func.base(perturbed))
    except Exception:
        return
    if a.shape != (_PROBES,) or b.shape != (_PROBES,):
        return
    if not np.array_equal(a, b):
        raise CylinderViolation(
            f"{func.label or 'function'} declared rank {func.rank} but its "
            f"value changed when coordinate {func.rank + 1} was perturbed"
        )


# ---------------------------------------------------------------------------
# Equidistribution certificate


@dataclass(frozen=True)
class EquidistributionReport:
    """Chi-square uniformity certificate for one rank."""

    rank: int
    sample_count: int
    bins_per_axis: int
    statistic: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "sample_count": self.sample_count,
            "bins_per_axis": self.bins_per_axis,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "pass": self.passed,
        }


# The chi-square approximation needs this many expected counts per cell.
_MIN_EXPECTED_COUNT = 5
# The chi-square level at which every certificate decides.
_SIGNIFICANCE = 0.999


def _ranks(ranks: Sequence[int]) -> tuple[int, ...]:
    """The truncation ranks as ints, unless they are not a nonempty,
    strictly increasing sequence of integers >= 1."""
    try:
        ranks = tuple(as_count("ranks", r, 1) for r in ranks)
    except TypeError:
        raise ValidationError("ranks", f"must be a sequence of integers, got {ranks!r}") from None
    if not ranks or any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise ValidationError("ranks", f"must be nonempty and strictly increasing, got {ranks}")
    return ranks


_DEFAULT_BINS = {1: 16, 2: 8, 3: 4}


def _default_bins(rank: int, sample_count: int) -> int:
    """Bins per axis keeping >= 5 expected counts per cell where 2 do."""
    cap = _DEFAULT_BINS.get(rank, 2)
    feasible = int((sample_count / _MIN_EXPECTED_COUNT) ** (1.0 / rank))
    return max(2, min(cap, feasible))


def _bins_per_rank(ranks: Sequence[int], sample_count: int) -> list[int]:
    """The sample plan: :func:`_default_bins` at each rank; ``ValidationError``
    naming ``sample_count`` when its points give some rank fewer than 5
    expected counts per cell, that is when there are fewer than
    ``5 * 2**rank``."""
    bins = [_default_bins(r, sample_count) for r in ranks]
    for rank, b in zip(ranks, bins):
        cells = b**rank
        if cells * _MIN_EXPECTED_COUNT > sample_count:
            raise ValidationError(
                "sample_count", f"must be at least {cells * _MIN_EXPECTED_COUNT} for "
                f"{_MIN_EXPECTED_COUNT} expected counts in each of the {cells} cells at rank "
                f"{rank}, got {sample_count}")
    return bins


def hierarchy_certify(
    source: PointSource,
    hierarchy: Sequence[int],
    sample_count: int,
) -> list[EquidistributionReport]:
    """Chi-square uniformity certificate of a unit-cube source for every
    rank of ``hierarchy``, strictly increasing truncation ranks; the source
    is adequate when all levels pass.

    The first ``sample_count`` points are read once, at the top rank; a
    source is truncation-consistent, so each rank bins the first ``rank``
    columns of that block on a grid of ``b`` bins per axis: 16, 8 and 4 at
    ranks 1, 2 and 3 and 2 above, fewer where ``sample_count`` cannot give
    every cell 5 expected counts.  A rank that 2 bins per axis cannot give
    them (fewer than ``5 * 2**rank`` points) raises ``ValidationError``
    naming ``sample_count``.  A level's threshold is the chi-square
    quantile at level 0.999 with ``b**rank - 1`` degrees of freedom, from
    ``scipy.special.gammaincinv``, which is imported when this function is
    called, not when the package is."""
    from scipy.special import gammaincinv

    if source.codomain != UNIT_CUBE:
        raise ValidationError("source", f"must have a {UNIT_CUBE} codomain, got {source.codomain}")
    ranks = _ranks(hierarchy)
    sample_count = as_count("sample_count", sample_count, 1)
    bins = _bins_per_rank(ranks, sample_count)
    counts = [np.zeros(b**r, dtype=np.int64) for r, b in zip(ranks, bins)]
    chunk = 1 << 16
    buf = np.empty(ranks[-1] * min(chunk, sample_count))
    for start in range(0, sample_count, chunk):
        block = source.block(start, min(start + chunk, sample_count), ranks[-1], buf)
        for rank, b, count in zip(ranks, bins, counts):
            idx = np.minimum((block[:, :rank] * b).astype(np.int64), b - 1)
            flat = idx[:, 0]
            for k in range(1, rank):
                flat = flat * b + idx[:, k]
            count += np.bincount(flat, minlength=len(count))
    reports = []
    for rank, b, count in zip(ranks, bins, counts):
        expected = sample_count / len(count)
        statistic = float(np.sum((count - expected) ** 2) / expected)
        threshold = float(2.0 * gammaincinv((len(count) - 1) / 2.0, _SIGNIFICANCE))
        reports.append(EquidistributionReport(rank, sample_count, b, statistic, threshold,
                                              statistic <= threshold))
    return reports
