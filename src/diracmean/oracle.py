"""Independent ground truth: tensor-product quadrature and closed forms.

Deterministic composite Gauss-Legendre quadrature up to rank 3,
refined by cell doubling until two successive resolutions agree, plus
the closed-form moments of complex Gaussian densities.  A normalized
expectation is one quadrature of the stacked integrand
``(density, |density|, f * density)``, so the density is evaluated once
per grid.  Both quadrature functions return ``(value, cells_used)``.
Oracle tolerances (1e-8 .. 1e-10) sit two-plus orders below the
estimator tolerances they back, so oracle error never masks estimator
error.  A box for an unbounded measure comes from its quantile family
(``QuantileFamily.domain``), cut at a truncation multiple of its widest
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateOracle, NoConvergence, ValidationError, as_count, as_number

__all__ = [
    "QuadratureSpec",
    "tensor_quadrature",
    "normalized_expectation",
    "complex_gaussian_moment",
]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(7)
_CELL_CAP = {1: 4096, 2: 512, 3: 128}
_REL_TOL = 1e-10
_CHUNK = 1 << 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor grid description: per-axis finite intervals and the starting
    resolution for cell doubling, which must leave room for one doubling
    below the rank's cap (4096 / 512 / 128 cells per axis)."""

    domain: tuple[tuple[float, float], ...]
    cells_per_axis: int = 4

    def __post_init__(self):
        rank = len(self.domain)
        if not (1 <= rank <= 3):
            raise ValidationError("domain", f"must have 1 to 3 axes, got {rank}")
        cells = as_count("cells_per_axis", self.cells_per_axis, 4)
        if 2 * cells > _CELL_CAP[rank]:
            raise ValidationError(
                "cells_per_axis", f"must be <= {_CELL_CAP[rank] // 2} at rank {rank}, "
                f"so that cells can double once below the cap, got {cells}"
            )
        object.__setattr__(self, "cells_per_axis", cells)
        for lo, hi in self.domain:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValidationError("domain", f"each axis needs a finite interval lo < hi, "
                                      f"got ({lo}, {hi})")

    @property
    def rank(self) -> int:
        return len(self.domain)


def _axis_rule(lo: float, hi: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(lo, hi, cells + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    wts = (half[:, None] * _WEIGHTS[None, :]).ravel()
    return nodes, wts


def _integrate_once(g: Callable, domain, cells: int) -> np.complex128 | np.ndarray:
    # The first axis is walked in whole rows of at most _CHUNK points; a row
    # is the x-major product of the remaining axes, with outer-product
    # weights.  Grids are handed to ``g`` column-major, like the sources'
    # point blocks.
    (x, wx), *inner = [_axis_rule(lo, hi, cells) for lo, hi in domain]
    inner_nodes = [m.ravel() for m in np.meshgrid(*(n for n, _ in inner), indexing="ij")]
    inner_w = np.ones(1)
    for _, w in inner:
        inner_w = np.multiply.outer(inner_w, w).ravel()
    row = len(inner_w)
    rows_per_chunk = max(1, _CHUNK // row)
    total = np.complex128(0)
    for start in range(0, len(x), rows_per_chunk):
        stop = min(start + rows_per_chunk, len(x))
        grid = np.empty((len(domain), (stop - start) * row))
        grid[0].reshape(-1, row)[:] = x[start:stop, None]
        for axis, nodes in zip(grid[1:], inner_nodes):
            axis.reshape(-1, row)[:] = nodes
        vals = np.asarray(g(grid.T))
        total = total + vals @ (wx[start:stop, None] * inner_w).ravel()
    return total


def tensor_quadrature(g: Callable, spec: QuadratureSpec) -> tuple[complex | list[complex], int]:
    """Integral of ``g`` over the spec's box by composite 7-node
    Gauss-Legendre rule, doubling cells per axis until two successive
    values agree within 1e-10 (relative, floored at 1), and the cells per
    axis at which they agreed.

    ``g`` maps an ``(m, rank)`` grid to ``(m,)`` values, and the value is
    a Python complex; or to ``(k, m)`` values, and the value is a list of
    k Python complexes, converged only when every component agrees.
    Raises ``NoConvergence`` at the per-rank resolution cap
    (4096 / 512 / 128 cells per axis for ranks 1 / 2 / 3).
    """
    cap = _CELL_CAP[spec.rank]
    cells = spec.cells_per_axis
    prev = None
    while cells <= cap:
        val = _integrate_once(g, spec.domain, cells)
        if prev is not None and np.all(abs(val - prev) <= _REL_TOL * np.maximum(1.0, abs(val))):
            # tolist() gives Python complexes, never numpy scalars.
            return val.tolist(), cells
        prev = val
        cells *= 2
    raise NoConvergence(
        f"cell doubling hit the rank-{spec.rank} cap ({cap} cells/axis) "
        "before successive values agreed"
    )


def normalized_expectation(
    f: Callable, density: Callable, spec: QuadratureSpec
) -> tuple[complex, int]:
    """The ratio ``integral(f * density) / integral(density)`` over the
    spec's box, for a possibly complex density, and the cells per axis at
    which ``density``, ``|density|`` and ``f * density`` all agreed.

    The three integrals are one quadrature of a stacked integrand, so the
    density is evaluated once per grid.  Raises ``DegenerateOracle`` when
    the normalization is below 1e-10 of the absolute-density integral.
    """

    def stacked(x):
        rho = np.asarray(density(x))
        return np.stack([rho, np.abs(rho), np.asarray(f(x)) * rho])

    (z, a, num), cells = tensor_quadrature(stacked, spec)
    if abs(z) < 1e-10 * abs(a):
        raise DegenerateOracle(
            "the normalizing integral is below 1e-10 of the absolute-density "
            "integral on this domain"
        )
    return num / z, cells


def complex_gaussian_moment(curvature: float, width: float, moment: int) -> complex:
    """Closed-form moments of the density
    ``exp(-x^2 / (2 width^2)) * exp(-i curvature x^2 / 2)`` on the line:
    moment 0 is 1 (normalization), moment 2 is
    ``width^2 / (1 + i curvature width^2)``."""
    width = as_number("width", width, 0.0)
    curvature = as_number("curvature", curvature)
    if moment == 0:
        return 1.0 + 0.0j
    if moment == 2:
        w2 = width * width
        return w2 / (1.0 + 1j * curvature * w2)
    raise ValidationError("moment", f"has a closed form only for 0 and 2, got {moment!r}")
