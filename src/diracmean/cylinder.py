"""Finite-rank (cylinder) functions and per-rank source certification.

A cylinder function reads only its first ``rank`` coordinates, so its
mean over an infinite-dimensional source reduces to the finite-rank
pushforward: the engine truncates every point block at the declared
rank before evaluation, and the declaration itself is checkable by
perturbing the coordinate just beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CylinderViolation, RankExceeded
from .seq import EquidistributionReport, PointSource, equidistribution_statistic

__all__ = [
    "CylinderFunction",
    "cylinder_function",
    "verify_cylinder",
    "ProjectionHierarchy",
    "hierarchy_certify",
    "default_bins",
]


@dataclass(frozen=True)
class CylinderFunction:
    """A function of the first ``rank`` coordinates of a point.

    ``base`` receives a ``(m, rank)`` array (column-major for source
    blocks) and returns ``(m,)`` values (possibly complex); for
    ``rank == 0`` a plain number is accepted and the function is that
    constant.
    """

    rank: int
    base: Callable[[np.ndarray], np.ndarray] | complex | float
    label: str = ""

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        if self.rank > 0 and not callable(self.base):
            raise TypeError("rank > 0 needs a callable base")

    def eval_block(self, points: np.ndarray) -> np.ndarray:
        if points.ndim != 2:
            raise ValueError("expected a (m, rank) block of points")
        if points.shape[1] < self.rank:
            raise RankExceeded(
                f"{self.label or 'function'} has rank {self.rank} but the "
                f"points carry only {points.shape[1]} coordinates"
            )
        if self.rank == 0:
            const = self.base if not callable(self.base) else self.base(points[:, :0])
            return np.full(len(points), const)
        return np.asarray(self.base(points[:, : self.rank]))

    def __call__(self, point) -> complex | float:
        coords = getattr(point, "coords", point)
        block = np.asarray([coords], dtype=np.float64)
        out = self.eval_block(block)[0]
        return complex(out) if np.iscomplexobj(out) else float(out)


def cylinder_function(rank: int, base, label: str = "") -> CylinderFunction:
    """Declare a function of the first ``rank`` coordinates."""
    return CylinderFunction(rank=rank, base=base, label=label)


def verify_cylinder(func: CylinderFunction, probes: int = 16) -> None:
    """Probe the declared rank: evaluate the raw base on points one
    coordinate wider than the rank and perturb that extra coordinate.

    A base that cannot evaluate wider points passes trivially (it cannot
    read beyond its rank); a base that evaluates them and changes value
    raises ``CylinderViolation``.
    """
    if func.rank == 0 or not callable(func.base):
        return
    rng = np.random.default_rng(0x1CEB00DA)
    pts = rng.random((probes, func.rank + 1))
    perturbed = pts.copy()
    perturbed[:, -1] = rng.random(probes)
    try:
        a = np.asarray(func.base(pts))
        b = np.asarray(func.base(perturbed))
    except Exception:
        return
    if a.shape != (probes,) or b.shape != (probes,):
        return
    if not np.array_equal(a, b):
        raise CylinderViolation(
            f"{func.label or 'function'} declared rank {func.rank} but its "
            f"value changed when coordinate {func.rank + 1} was perturbed"
        )


@dataclass(frozen=True)
class ProjectionHierarchy:
    """Strictly increasing truncation ranks standing in for a projector
    family growing to the identity."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        if not self.ranks:
            raise ValueError("hierarchy needs at least one rank")
        if self.ranks[0] < 1:
            raise ValueError("ranks must start at >= 1")
        if any(b <= a for a, b in zip(self.ranks, self.ranks[1:])):
            raise ValueError("ranks must be strictly increasing")


_DEFAULT_BINS = {1: 16, 2: 8, 3: 4}


def default_bins(rank: int, sample_count: int) -> int:
    """Bins per axis keeping >= 5 expected counts per cell."""
    cap = _DEFAULT_BINS.get(rank, 2)
    feasible = int((sample_count / 5.0) ** (1.0 / rank))
    return max(2, min(cap, feasible))


def hierarchy_certify(
    source: PointSource,
    hierarchy: ProjectionHierarchy | Sequence[int],
    sample_count: int,
    level: float = 0.999,
    bins_per_axis: Sequence[int] | int | None = None,
) -> list[EquidistributionReport]:
    """Chi-square uniformity certificate for every rank in the hierarchy;
    the source is adequate when all levels pass."""
    ranks = hierarchy.ranks if isinstance(hierarchy, ProjectionHierarchy) else tuple(hierarchy)
    ProjectionHierarchy(tuple(ranks))  # validate shape
    if bins_per_axis is None:
        bins = [default_bins(r, sample_count) for r in ranks]
    elif np.isscalar(bins_per_axis):
        bins = [int(bins_per_axis)] * len(ranks)
    else:
        bins = [int(b) for b in bins_per_axis]
        if len(bins) != len(ranks):
            raise ValueError("need one bins_per_axis entry per rank")
    return [
        equidistribution_statistic(source, r, sample_count, b, level)
        for r, b in zip(ranks, bins)
    ]
