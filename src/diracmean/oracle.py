"""Independent ground truth: tensor-product quadrature and closed forms.

Deterministic composite Gauss-Legendre quadrature up to rank 3,
refined by cell doubling until two successive resolutions agree, plus
the closed-form moments of complex Gaussian densities.  Oracle
tolerances (1e-8 .. 1e-10) sit two-plus orders below the estimator
tolerances they back, so oracle error never masks estimator error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateOracle, NoConvergence, NonpositiveWidth, UnsupportedMoment

__all__ = [
    "QuadratureSpec",
    "tensor_quadrature",
    "tensor_quadrature_with_info",
    "normalized_expectation",
    "normalized_expectation_with_info",
    "complex_gaussian_moment",
    "gaussian_domain",
]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(7)
_CELL_CAP = {1: 4096, 2: 512, 3: 128}
_REL_TOL = 1e-10
_CHUNK = 1 << 19


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor grid description: per-axis finite intervals and the starting
    resolution for cell doubling."""

    domain: tuple[tuple[float, float], ...]
    cells_per_axis: int = 4

    def __post_init__(self):
        rank = len(self.domain)
        if not (1 <= rank <= 3):
            raise ValueError("quadrature supports ranks 1..3")
        if self.cells_per_axis < 4:
            raise ValueError("cells_per_axis must be >= 4")
        for lo, hi in self.domain:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError("each axis needs a finite interval lo < hi")

    @property
    def rank(self) -> int:
        return len(self.domain)


def gaussian_domain(width: float = 1.0, rank: int = 1) -> QuadratureSpec:
    """Truncation box [-8 max(width,1), +8 max(width,1)] per axis; the
    Gaussian mass outside is below 1e-14 relative."""
    half = 8.0 * max(width, 1.0)
    return QuadratureSpec(domain=tuple((-half, half) for _ in range(rank)))


def _axis_rule(lo: float, hi: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(lo, hi, cells + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    wts = (half[:, None] * _WEIGHTS[None, :]).ravel()
    return nodes, wts


def _integrate_once(g: Callable, domain, cells: int) -> complex:
    # Grids are handed to ``g`` column-major, like the sources' point blocks.
    rules = [_axis_rule(lo, hi, cells) for lo, hi in domain]
    rank = len(domain)
    if rank == 1:
        nodes, wts = rules[0]
        vals = np.asarray(g(nodes[:, None]))
        return complex(np.dot(vals, wts))
    ny = len(rules[1][0])
    total = 0.0 + 0.0j
    if rank == 2:
        x, wx = rules[0]
        y, wy = rules[1]
        rows_per_chunk = max(1, _CHUNK // ny)
        for start in range(0, len(x), rows_per_chunk):
            stop = min(start + rows_per_chunk, len(x))
            grid = np.empty((2, (stop - start) * ny))
            grid[0].reshape(-1, ny)[:] = x[start:stop, None]
            grid[1].reshape(-1, ny)[:] = y
            vals = np.asarray(g(grid.T))
            w = np.repeat(wx[start:stop], ny) * np.tile(wy, stop - start)
            total += complex(np.dot(vals, w))
        return total
    x, wx = rules[0]
    y, wy = rules[1]
    z, wz = rules[2]
    yy, zz = np.meshgrid(y, z, indexing="ij")
    yy, zz = yy.ravel(), zz.ravel()
    wyz = np.multiply.outer(wy, wz).ravel()
    for i in range(len(x)):
        grid = np.empty((3, len(yy)))
        grid[0] = x[i]
        grid[1] = yy
        grid[2] = zz
        vals = np.asarray(g(grid.T))
        total += complex(wx[i] * np.dot(vals, wyz))
    return total


def tensor_quadrature_with_info(g: Callable, spec: QuadratureSpec) -> tuple[complex, int]:
    """Like :func:`tensor_quadrature` but also reports the resolution at
    which the doubling converged."""
    cap = _CELL_CAP[spec.rank]
    cells = spec.cells_per_axis
    prev = None
    while cells <= cap:
        val = _integrate_once(g, spec.domain, cells)
        if prev is not None and abs(val - prev) <= _REL_TOL * max(1.0, abs(val)):
            return val, cells
        prev = val
        cells *= 2
    raise NoConvergence(
        f"cell doubling hit the rank-{spec.rank} cap ({cap} cells/axis) "
        "before successive values agreed"
    )


def tensor_quadrature(g: Callable, spec: QuadratureSpec) -> complex:
    """Integral of ``g`` over the spec's box by composite 7-node
    Gauss-Legendre rule, doubling cells per axis until two successive
    values agree within 1e-10 (relative, floored at 1).

    Raises ``NoConvergence`` at the per-rank resolution cap
    (4096 / 512 / 128 cells per axis for ranks 1 / 2 / 3).
    """
    value, _ = tensor_quadrature_with_info(g, spec)
    return value


def normalized_expectation_with_info(
    f: Callable, density: Callable, spec: QuadratureSpec
) -> tuple[complex, int]:
    """Like :func:`normalized_expectation`, also reporting the finest
    resolution used by any of the three integrals."""
    z, c1 = tensor_quadrature_with_info(density, spec)
    a, c2 = tensor_quadrature_with_info(lambda x: np.abs(density(x)), spec)
    if abs(z) < 1e-10 * abs(a):
        raise DegenerateOracle(
            "the normalizing integral is below 1e-10 of the absolute-density "
            "integral on this domain"
        )
    num, c3 = tensor_quadrature_with_info(
        lambda x: np.asarray(f(x)) * np.asarray(density(x)), spec
    )
    return num / z, max(c1, c2, c3)


def normalized_expectation(f: Callable, density: Callable, spec: QuadratureSpec) -> complex:
    """The ratio ``integral(f * density) / integral(density)`` over the
    spec's box, for a possibly complex density; raises
    ``DegenerateOracle`` when the normalization is too close to zero."""
    value, _ = normalized_expectation_with_info(f, density, spec)
    return value


def complex_gaussian_moment(curvature: float, width: float, moment: int) -> complex:
    """Closed-form moments of the density
    ``exp(-x^2 / (2 width^2)) * exp(-i curvature x^2 / 2)`` on the line:
    moment 0 is 1 (normalization), moment 2 is
    ``width^2 / (1 + i curvature width^2)``."""
    if width <= 0:
        raise NonpositiveWidth("width must be positive")
    if moment == 0:
        return 1.0 + 0.0j
    if moment == 2:
        w2 = width * width
        return w2 / (1.0 + 1j * curvature * w2)
    raise UnsupportedMoment(f"no closed form for moment {moment}")
