"""Independent ground truth: tensor-product quadrature and the closed
form of the complex Gaussian.

Deterministic composite Gauss-Legendre quadrature up to rank 3,
refined by cell doubling until two successive resolutions agree.  A
normalized expectation is one quadrature of the stacked integrand
``(density, |density|, f * density)``, so the density is evaluated once
per grid.  Both quadrature functions take the box as a tuple of
``(lo, hi)`` pairs, 1 to 3 finite axes, and return
``(value, cells_used)``; doubling starts at 4 cells per axis.
Oracle tolerances (1e-8 .. 1e-10) sit two-plus orders below the
estimator tolerances they back, so oracle error never masks estimator
error.  A box for an unbounded measure comes from its quantile family
(``QuantileFamily.domain``), cut at a truncation multiple of its widest
scale.

Where the measure is a Gaussian regularizer times ``e^{-iS}`` of a
quadratic action, it is a complex Gaussian, and
:func:`gaussian_expectation` gives the normalized integral of a function
that knows its Gaussian moment in closed form, at any rank and with no
box: no quadrature and no truncation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .action import QuadraticAction
from .errors import DegenerateOracle, NoConvergence, ValidationError

__all__ = [
    "tensor_quadrature",
    "normalized_expectation",
    "gaussian_expectation",
]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(7)
_START_CELLS = 4
_CELL_CAP = {1: 4096, 2: 512, 3: 128}
_REL_TOL = 1e-10
_CHUNK = 1 << 16


def _box(domain) -> tuple[tuple[float, float], ...]:
    """``domain`` as float ``(lo, hi)`` pairs, unless it is not 1 to 3
    finite intervals with ``lo < hi``; the error names ``domain``."""
    try:
        box = tuple((float(lo), float(hi)) for lo, hi in domain)
    except (TypeError, ValueError):
        raise ValidationError("domain", f"must be (lo, hi) pairs, got {domain!r}") from None
    if not 1 <= len(box) <= 3:
        raise ValidationError("domain", f"must have 1 to 3 axes, got {len(box)}")
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationError("domain", f"each axis needs a finite interval lo < hi, "
                                  f"got ({lo}, {hi})")
    return box


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


def tensor_quadrature(g: Callable, domain) -> tuple[complex | list[complex], int]:
    """Integral of ``g`` over the box ``domain``, a tuple of one finite
    ``(lo, hi)`` interval per axis for 1 to 3 axes, by composite 7-node
    Gauss-Legendre rule, doubling cells per axis from 4 until two
    successive values agree within 1e-10 (relative, floored at 1); and
    the cells per axis at which they agreed.  Any other box raises
    ``ValidationError`` naming ``domain``.

    ``g`` maps an ``(m, rank)`` grid to ``(m,)`` values, and the value is
    a Python complex; or to ``(k, m)`` values, and the value is a list of
    k Python complexes, converged only when every component agrees.
    Raises ``NoConvergence`` at the per-rank resolution cap
    (4096 / 512 / 128 cells per axis for ranks 1 / 2 / 3).
    """
    box = _box(domain)
    cap = _CELL_CAP[len(box)]
    cells = _START_CELLS
    prev = None
    while cells <= cap:
        val = _integrate_once(g, box, cells)
        if prev is not None and np.all(abs(val - prev) <= _REL_TOL * np.maximum(1.0, abs(val))):
            # tolist() gives Python complexes, never numpy scalars.
            return val.tolist(), cells
        prev = val
        cells *= 2
    raise NoConvergence(
        f"cell doubling hit the rank-{len(box)} cap ({cap} cells/axis) "
        "before successive values agreed"
    )


def normalized_expectation(f: Callable, density: Callable, domain) -> tuple[complex, int]:
    """The ratio ``integral(f * density) / integral(density)`` over the
    box ``domain`` (as :func:`tensor_quadrature` takes it), for a possibly
    complex density, and the cells per axis at which ``density``,
    ``|density|`` and ``f * density`` all agreed.

    The three integrals are one quadrature of a stacked integrand, so the
    density is evaluated once per grid.  Raises ``DegenerateOracle`` when
    the normalization is below 1e-10 of the absolute-density integral.
    """

    def stacked(x):
        rho = np.asarray(density(x))
        return np.stack([rho, np.abs(rho), np.asarray(f(x)) * rho])

    (z, a, num), cells = tensor_quadrature(stacked, domain)
    if abs(z) < 1e-10 * abs(a):
        raise DegenerateOracle(
            "the normalizing integral is below 1e-10 of the absolute-density "
            "integral on this domain"
        )
    return num / z, cells


def gaussian_expectation(func, action, regularizer) -> complex:
    """The normalized integral of ``func`` against ``xi(x) e^{-i S(x)}``
    over R^d in closed form, where ``xi`` is the density of the
    ``normal_quantiles`` family ``regularizer`` on its d = ``len(widths)``
    coordinates and ``S(x) = x.A.x / 2 + b.x + c0`` is the quadratic
    ``action``, A and b zero-padded to d.

    The normalized measure is the complex Gaussian of covariance
    ``Sigma = M^-1``, ``M = diag(widths)^-2 + i A``, and mean
    ``mu = -i Sigma b``; ``c0`` and the normalization cancel.  The value is
    ``func.gaussian_mean(mu, Sigma)``, the function's own moment, handed
    lists of Python complexes.  ``ValidationError`` names ``function``
    when it has no ``gaussian_mean``, ``action`` when it is not a
    ``QuadraticAction``, and ``regularizer`` when it is not a normal
    family covering every coordinate the action and the function read.
    """
    if getattr(regularizer, "family", None) != "normal":
        raise ValidationError("regularizer", "must be a 'normal' family for the closed form")
    if not isinstance(action, QuadraticAction):
        raise ValidationError("action", "must be a quadratic action for the closed form")
    if getattr(func, "gaussian_mean", None) is None:
        raise ValidationError("function", f"{func.label or 'function'} has no closed-form "
                              "Gaussian mean")
    widths = regularizer.widths
    d, r = len(widths), action.rank
    if max(r, func.rank) > d:
        raise ValidationError("regularizer", f"covers {d} coordinates but the "
                              f"action/function need {max(r, func.rank)}")
    # M^-1 as W (I + i W A W)^-1 W, W = diag(widths): no width is squared
    # alone, and I + i W A W is normal with eigenvalues 1 + i lambda, so its
    # inverse has norm at most 1.
    w = np.asarray(widths)
    k = np.eye(d, dtype=np.complex128)
    k[:r, :r] += 1j * (action.matrix * np.multiply.outer(w[:r], w[:r]))
    cov = [[wi * kij * wj for kij, wj in zip(row, widths)]
           for row, wi in zip(np.linalg.inv(k).tolist(), widths)]
    b = action.linear.tolist() + [0.0] * (d - r)
    mean = [-1j * sum(c * bj for c, bj in zip(row, b)) for row in cov]
    return complex(func.gaussian_mean(mean, cov))
