"""Deterministic point sequences on the infinite-dimensional unit cube.

Every source is a pure indexed family ``n -> x_n``: coordinate ``k`` of
point ``n`` depends only on ``(n, k)`` and the source parameters, so
truncations of the same point at different ranks agree bit for bit and
concurrent reads need no coordination.  Points are produced lazily, one
rank-``d`` block at a time; nothing ever materializes more coordinates
than its consumer asks for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.special import gammaincinv, ndtri

from .errors import (
    BadGenerator,
    InsufficientSample,
    NonpositiveWidth,
    QuantileDomain,
    RankUnsupported,
)

__all__ = [
    "Point",
    "PointSource",
    "QuantileFamily",
    "EquidistributionReport",
    "point_at",
    "halton_source",
    "weyl_source",
    "pseudorandom_source",
    "convergent_source",
    "pullback_source",
    "uniform_quantiles",
    "normal_quantiles",
    "box_quantiles",
    "equidistribution_statistic",
    "star_discrepancy",
]

UNIT_CUBE = "unit-cube"
REAL_PRODUCT = "real-line-product"

# Denominator bound below which a generator counts as rational.
_RATIONAL_DEN_BOUND = 10**6


@dataclass(frozen=True)
class Point:
    """A rank-``d`` truncation of a sequence point."""

    coords: tuple[float, ...]

    def __post_init__(self):
        if len(self.coords) < 1:
            raise ValueError("a point needs at least one coordinate")

    @property
    def rank(self) -> int:
        return len(self.coords)


class PointSource:
    """Pure indexed family of points, read coordinate-block-wise.

    Subclasses implement :meth:`coordinate_block`; everything else
    (truncation consistency, purity, block assembly) follows from the
    per-coordinate structure.
    """

    kind: str = "abstract"
    codomain: str = UNIT_CUBE

    def coordinate_block(self, indices: np.ndarray, k: int) -> np.ndarray:
        """Coordinate ``k`` (0-based) of the points with the given indices."""
        raise NotImplementedError

    def block(self, start: int, stop: int, rank: int) -> np.ndarray:
        """Points ``start..stop-1`` truncated at ``rank``, as a (stop-start, rank) array.

        The block is column-major (Fortran order): each coordinate is
        written as one contiguous column, and the library's actions and
        weights read the columns in place and stay row-pure (a point's
        values do not depend on the block it is evaluated in).
        """
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if stop < start or start < 0:
            raise ValueError("need 0 <= start <= stop")
        idx = np.arange(start, stop, dtype=np.int64)
        out = np.empty((rank, stop - start), dtype=np.float64)
        for k in range(rank):
            out[k] = self.coordinate_block(idx, k)
        return out.T

    def point_at(self, n: int, d: int) -> Point:
        """The rank-``d`` truncation of point ``n``."""
        if n < 0:
            raise ValueError("index must be >= 0")
        row = self.block(n, n + 1, d)[0]
        return Point(tuple(float(x) for x in row))


def point_at(source: PointSource, n: int, d: int) -> Point:
    """Functional form of :meth:`PointSource.point_at`."""
    return source.point_at(n, d)


# ---------------------------------------------------------------------------
# Halton


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


# Digits per table lookup: the most whose table stays within 2^16 entries.
_TABLE_ENTRIES = 1 << 16
# A reversed-digit numerator and its power-of-base denominator are exact
# float64 values while the denominator stays within 2^53.
_EXACT_DENOMINATOR = 1 << 53
_BELOW_ONE = 1.0 - 2.0**-53


def _digits(value: int, base: int) -> int:
    """Number of base-``base`` digits of ``value`` (0 for 0)."""
    count = 0
    while value:
        value //= base
        count += 1
    return count


@functools.cache
def _digit_table(base: int) -> tuple[int, np.ndarray]:
    """``(k, table)``: ``table[q]`` is ``q``'s ``k`` base-``base`` digits in
    reverse order, for every ``q < base**k``, in the smallest unsigned dtype
    that holds them.  Built on first use of the base, read-only."""
    k = max(1, _digits(_TABLE_ENTRIES, base) - 1)
    size = base**k
    rest = np.arange(size, dtype=np.int64)
    table = np.zeros(size, dtype=np.int64)
    for _ in range(k):
        rest, digit = np.divmod(rest, base)
        table = table * base + digit
    table = table.astype(np.min_scalar_type(size - 1))
    table.flags.writeable = False
    return k, table


def _reversed_digits(values: np.ndarray, base: int, count: int) -> np.ndarray:
    """Integer whose ``count`` base-``base`` digits are those of each value
    (all ``< base**count``) in reverse order, by table lookups of up to
    ``k`` digits at a time."""
    k, table = _digit_table(base)
    step = base**k
    num = np.zeros(len(values), dtype=np.int64)
    rest = values
    while count > 0:
        width = min(k, count)
        high = rest // step
        group = table[rest - high * step]
        if width < k:
            group = group // base ** (k - width)
        num *= base**width
        num += group
        rest = high
        count -= width
    return num


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of each index in the given base.

    With ``D`` the digit count, the value is ``N / base**D`` for the
    digit-reversed integer ``N``.  While ``base**D <= 2^53`` both are exact
    float64 values and one division rounds correctly; past that (indices
    near the top of int64) the quotient of the exact Python integers is
    taken, which Python also rounds correctly.  Values that round to 1.0
    are returned as the largest float below 1, so the result always lies
    in [0, 1) and within 1 ulp of the exact radical inverse.
    """
    head = _digits(_EXACT_DENOMINATOR, base) - 1
    split = base**head
    top = int(indices.max(initial=0))
    count = min(_digits(top, base), head)
    low = indices % split if top >= split else indices
    num = _reversed_digits(low, base, count)
    inv = num / float(base**count)
    if top >= split:
        high = indices // split
        tail_count = _digits(top // split, base)
        far = np.flatnonzero(high)
        tail = _reversed_digits(high[far], base, tail_count)
        numerator = num[far].astype(object) * base**tail_count + tail
        exact = numerator / base ** (head + tail_count)
        inv[far] = np.minimum(exact.astype(np.float64), _BELOW_ONE)
    return inv


class HaltonSource(PointSource):
    kind = "halton"
    codomain = UNIT_CUBE

    def __init__(self, index_offset: int = 0):
        if index_offset < 0:
            raise ValueError("index_offset must be >= 0")
        self.index_offset = int(index_offset)
        self._bases: list[int] = []

    def _base(self, k: int) -> int:
        while len(self._bases) <= k:
            self._bases = _primes(len(self._bases) + 8)
        return self._bases[k]

    def coordinate_block(self, indices: np.ndarray, k: int) -> np.ndarray:
        return _radical_inverse(indices + self.index_offset, self._base(k))


def halton_source(index_offset: int = 0) -> PointSource:
    """Halton points: coordinate ``k`` is the radical inverse in the
    (k+1)-th prime base of ``n + index_offset``.

    Point ``n = 0`` with offset 0 is the origin; use ``index_offset >= 1``
    when the points feed a quantile pullback.
    """
    return HaltonSource(index_offset)


# ---------------------------------------------------------------------------
# Weyl


def _rational_denominator_at_most(value: Fraction, bound: int) -> bool:
    """Continued-fraction test: is ``value`` equal to, or astronomically
    close to, a rational with denominator <= ``bound``?

    Walks the continued fraction of ``value``.  Rejection triggers when
    the expansion terminates while the convergent denominator is still
    <= ``bound`` (exact small rational), or when a partial quotient
    exceeds ``bound`` while the current convergent denominator is
    <= ``bound`` (the value sits within ~1/(bound * q^2) of ``p/q``).
    """
    num, den = value.numerator, value.denominator
    km2, km1 = 1, 0  # convergent denominators k_{i-2}, k_{i-1}
    i = 0
    while den != 0:
        a, rem = divmod(num, den)
        if i >= 1 and a > bound and km1 <= bound:
            return True
        km2, km1 = km1, a * km1 + km2
        if km1 > bound:
            return False
        num, den = den, rem
        i += 1
    return km1 <= bound


def _pi_power_fraction(k: int, precision_bits: int) -> Fraction:
    """Fractional part of pi**k at the given binary precision, as the exact
    rational value of the computed binary approximation."""
    import mpmath

    with mpmath.workprec(precision_bits + 2 * k):
        frac = mpmath.frac(mpmath.pi**k)
        sign, mantissa, exponent, _ = mpmath.mpf(frac)._mpf_
    value = Fraction(int(mantissa)) * Fraction(2) ** int(exponent)
    return -value if sign else value


class WeylSource(PointSource):
    kind = "weyl"
    codomain = UNIT_CUBE

    def __init__(
        self,
        alphas: Sequence[str | float] | None = None,
        index_offset: int = 0,
        precision: int = 256,
    ):
        if index_offset < 0:
            raise ValueError("index_offset must be >= 0")
        if precision < 64:
            raise ValueError("precision must be >= 64 bits")
        self.index_offset = int(index_offset)
        self.precision = int(precision)
        self._explicit = None
        if alphas is not None:
            self._explicit = [self._check(Fraction(str(a)), str(a)) for a in alphas]
        self._cache: list[float] = list(self._explicit or [])

    @staticmethod
    def _check(frac: Fraction, label: str) -> float:
        if not (0 < frac < 1):
            raise BadGenerator(f"generator {label} must lie strictly in (0, 1)")
        if _rational_denominator_at_most(frac, _RATIONAL_DEN_BOUND):
            raise BadGenerator(
                f"generator {label} is rational-looking "
                f"(denominator <= {_RATIONAL_DEN_BOUND}); the sequence would be periodic"
            )
        return float(frac)

    def generator(self, k: int) -> float:
        """The multiplier for coordinate ``k`` (0-based)."""
        if self._explicit is not None:
            if k >= len(self._explicit):
                raise RankUnsupported(
                    f"only {len(self._explicit)} generators were supplied; "
                    f"coordinate {k + 1} was requested"
                )
            return self._explicit[k]
        while len(self._cache) <= k:
            j = len(self._cache) + 1
            frac = _pi_power_fraction(j, self.precision)
            self._cache.append(self._check(frac, f"frac(pi^{j})"))
        return self._cache[k]

    def coordinate_block(self, indices: np.ndarray, k: int) -> np.ndarray:
        alpha = self.generator(k)
        prod = (indices + self.index_offset) * alpha
        return prod - np.floor(prod)


def weyl_source(
    alphas: Sequence[str | float] | None = None,
    index_offset: int = 0,
    precision: int = 256,
) -> PointSource:
    """Kronecker/Weyl points: coordinate ``k`` of point ``n`` is
    ``frac(n * alpha_k)``.

    Parameters
    ----------
    alphas
        Generators in (0, 1), preferably as decimal strings so no
        precision is lost before the rationality check.  When omitted,
        coordinate ``k`` uses ``frac(pi**(k+1))`` computed with at least
        ``precision`` bits (double-precision ``pi**k`` loses its entire
        fractional part near k ~ 30).
    index_offset
        Shift of the index; point 0 of the unshifted sequence is exactly
        the origin, so use an offset >= 1 before a quantile pullback.

    Raises
    ------
    BadGenerator
        If a generator is (indistinguishable from) a rational with
        denominator <= 10^6, detected by continued-fraction expansion.
    """
    return WeylSource(alphas, index_offset, precision)


# ---------------------------------------------------------------------------
# Counter-based pseudorandom

_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)
_KEY_N = np.uint64(0x9E3779B97F4A7C15)
_KEY_K = np.uint64(0xC2B2AE3D27D4EB4F)
_KEY_SEED = np.uint64(0xD6E8FEB86659FD93)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_MUL1
    z = (z ^ (z >> np.uint64(27))) * _MIX_MUL2
    return z ^ (z >> np.uint64(31))


class PseudorandomSource(PointSource):
    kind = "pseudorandom"
    codomain = UNIT_CUBE

    def __init__(self, seed: int):
        self.seed = int(seed) & (2**64 - 1)

    def coordinate_block(self, indices: np.ndarray, k: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            key = (
                indices.astype(np.uint64) * _KEY_N
                ^ np.uint64(k + 1) * _KEY_K
                ^ np.uint64(self.seed) * _KEY_SEED
            )
            bits = _mix64(key)
        return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


def pseudorandom_source(seed: int) -> PointSource:
    """Counter-based uniform pseudorandom points: coordinate ``(n, k)`` is
    a pure 64-bit hash of ``(seed, n, k)`` mapped to [0, 1).  Stateless,
    hence truncation-consistent and safe to index from any worker."""
    return PseudorandomSource(seed)


# ---------------------------------------------------------------------------
# Convergent


def _per_coordinate(values: float | Sequence[float], k: int) -> float:
    if np.isscalar(values):
        return float(values)  # type: ignore[arg-type]
    seq = list(values)  # type: ignore[arg-type]
    return float(seq[k]) if k < len(seq) else float(seq[-1])


class ConvergentSource(PointSource):
    kind = "convergent"
    codomain = UNIT_CUBE

    def __init__(
        self,
        target: float | Sequence[float],
        rate: float,
        offset: float | Sequence[float] = 1.0,
    ):
        if not (0.0 < rate < 1.0):
            raise ValueError("rate must lie in (0, 1)")
        self.target = target
        self.rate = float(rate)
        self.offset = offset

    def coordinate_block(self, indices: np.ndarray, k: int) -> np.ndarray:
        t = _per_coordinate(self.target, k)
        a = _per_coordinate(self.offset, k)
        with np.errstate(under="ignore"):
            vals = t + a * np.power(self.rate, indices.astype(np.float64))
        return np.clip(vals, 0.0, 1.0)


def convergent_source(
    target: float | Sequence[float],
    rate: float,
    offset: float | Sequence[float] = 1.0,
) -> PointSource:
    """Points converging geometrically to ``target``:
    ``x_n[k] = target[k] + rate**n * offset[k]``, clamped to [0, 1].

    Scalars broadcast to every coordinate; sequences extend with their
    last entry.  ``offset = 0`` gives the constant (adversarial) source.
    """
    return ConvergentSource(target, rate, offset)


# ---------------------------------------------------------------------------
# Quantile families and pullback


class QuantileFamily:
    """Per-coordinate monotone quantile functions describing a product
    measure on the real line."""

    family: str = "abstract"

    def apply(self, k: int, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quantile(self, k: int, u: float) -> float:
        return float(self.apply(k, np.asarray([u], dtype=np.float64))[0])

    def to_dict(self) -> dict:
        raise NotImplementedError


class UniformQuantiles(QuantileFamily):
    """Identity transform: the product measure is uniform on [0, 1]^N."""

    family = "uniform"

    def apply(self, k: int, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=np.float64)

    def to_dict(self) -> dict:
        return {"family": "uniform"}


class NormalQuantiles(QuantileFamily):
    """Centered normal quantiles with per-coordinate standard deviations."""

    family = "normal"

    def __init__(self, widths: float | Sequence[float] = 1.0):
        ws = [widths] if np.isscalar(widths) else list(widths)
        if any(w <= 0 for w in ws):
            raise NonpositiveWidth("normal quantile widths must be positive")
        self.widths = tuple(float(w) for w in ws)

    def apply(self, k: int, u: np.ndarray) -> np.ndarray:
        sigma = _per_coordinate(self.widths, k)
        return sigma * ndtri(u)

    def to_dict(self) -> dict:
        return {"family": "normal", "widths": list(self.widths)}


class BoxQuantiles(QuantileFamily):
    """Uniform measure on the centered box [-half_width, half_width] per
    coordinate (a finite stand-in for Lebesgue measure)."""

    family = "uniform-box"

    def __init__(self, half_width: float | Sequence[float]):
        hs = [half_width] if np.isscalar(half_width) else list(half_width)
        if any(h <= 0 for h in hs):
            raise NonpositiveWidth("box half-widths must be positive")
        self.half_widths = tuple(float(h) for h in hs)

    def apply(self, k: int, u: np.ndarray) -> np.ndarray:
        h = _per_coordinate(self.half_widths, k)
        return h * (2.0 * u - 1.0)

    def to_dict(self) -> dict:
        return {"family": "uniform-box", "widths": list(self.half_widths)}


def uniform_quantiles() -> QuantileFamily:
    return UniformQuantiles()


def normal_quantiles(widths: float | Sequence[float] = 1.0) -> QuantileFamily:
    return NormalQuantiles(widths)


def box_quantiles(half_width: float | Sequence[float]) -> QuantileFamily:
    return BoxQuantiles(half_width)


def quantile_family_from_dict(spec: dict) -> QuantileFamily:
    """Build a quantile family from its config form."""
    fam = spec.get("family")
    if fam == "uniform":
        return UniformQuantiles()
    if fam == "normal":
        return NormalQuantiles(spec.get("widths", 1.0))
    if fam == "uniform-box":
        return BoxQuantiles(spec.get("widths", 1.0))
    raise ValueError(f"unknown quantile family: {fam!r}")


class PullbackSource(PointSource):
    kind = "pullback"
    codomain = REAL_PRODUCT

    def __init__(self, base: PointSource, quantiles: QuantileFamily):
        if base.codomain != UNIT_CUBE:
            raise ValueError("pullback base must have unit-cube codomain")
        self.base = base
        self.quantiles = quantiles

    def coordinate_block(self, indices: np.ndarray, k: int) -> np.ndarray:
        u = self.base.coordinate_block(indices, k)
        if np.any(u == 0.0) or np.any(u == 1.0):
            bad = int(indices[np.nonzero((u == 0.0) | (u == 1.0))[0][0]])
            raise QuantileDomain(
                f"base coordinate {k + 1} of point {bad} is exactly 0 or 1; "
                "use an index offset >= 1 on the base sequence"
            )
        return self.quantiles.apply(k, u)


def pullback_source(base: PointSource, quantiles: QuantileFamily) -> PointSource:
    """Map a cube source through per-coordinate quantile functions, turning
    uniform coordinates into samples of a product measure on R^N."""
    return PullbackSource(base, quantiles)


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


def equidistribution_statistic(
    source: PointSource,
    rank: int,
    sample_count: int,
    bins_per_axis: int,
    level: float = 0.999,
) -> EquidistributionReport:
    """Chi-square test of the first ``sample_count`` rank-truncated points
    against the uniform expectation on a ``bins_per_axis``-per-axis grid.

    The threshold is the chi-square quantile at ``level`` with
    ``bins_per_axis**rank - 1`` degrees of freedom; the test requires at
    least 5 expected counts per cell.
    """
    if source.codomain != UNIT_CUBE:
        raise ValueError("equidistribution test needs a unit-cube source")
    if rank < 1 or bins_per_axis < 2:
        raise ValueError("need rank >= 1 and bins_per_axis >= 2")
    cells = bins_per_axis**rank
    if cells * 5 > sample_count:
        raise InsufficientSample(
            f"{sample_count} samples give fewer than 5 expected counts per "
            f"cell ({cells} cells); increase N or lower the resolution"
        )
    counts = np.zeros(cells, dtype=np.int64)
    chunk = 1 << 16
    for start in range(0, sample_count, chunk):
        stop = min(start + chunk, sample_count)
        block = source.block(start, stop, rank)
        idx = np.minimum((block * bins_per_axis).astype(np.int64), bins_per_axis - 1)
        flat = idx[:, 0]
        for k in range(1, rank):
            flat = flat * bins_per_axis + idx[:, k]
        counts += np.bincount(flat, minlength=cells)
    expected = sample_count / cells
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    threshold = float(2.0 * gammaincinv((cells - 1) / 2.0, level))
    return EquidistributionReport(
        rank=rank,
        sample_count=sample_count,
        bins_per_axis=bins_per_axis,
        statistic=statistic,
        threshold=threshold,
        passed=statistic <= threshold,
    )


# ---------------------------------------------------------------------------
# Star discrepancy (exact, ranks 1 and 2)

_STAR_MAX_N = 4096


def star_discrepancy(source: PointSource, rank: int, sample_count: int) -> float:
    """Exact star discrepancy of the first ``sample_count`` points at the
    given rank, by sweeping the critical boxes anchored at sample
    coordinates.  Supports ranks 1 and 2 and N <= 4096."""
    if rank not in (1, 2):
        raise RankUnsupported("star discrepancy is implemented for ranks 1 and 2")
    if source.codomain != UNIT_CUBE:
        raise ValueError("star discrepancy needs a unit-cube source")
    if not (1 <= sample_count <= _STAR_MAX_N):
        raise ValueError(f"sample_count must lie in 1..{_STAR_MAX_N}")
    pts = source.block(0, sample_count, rank)
    if rank == 1:
        return _star_1d(np.sort(pts[:, 0]))
    return _star_2d(pts)


def _star_1d(sorted_x: np.ndarray) -> float:
    n = len(sorted_x)
    i = np.arange(1, n + 1, dtype=np.float64)
    over = np.max(i / n - sorted_x)
    under = np.max(sorted_x - (i - 1.0) / n)
    return float(max(over, under))


def _star_2d(pts: np.ndarray) -> float:
    # Sweep x-candidates in increasing order; for each, the closed box
    # count at candidate heights is a rank in the sorted included y's,
    # and the open count uses the strictly-smaller prefix.
    n = len(pts)
    order = np.argsort(pts[:, 0], kind="stable")
    xs = pts[order, 0]
    ys = pts[order, 1]
    all_y = np.sort(pts[:, 1])
    v_candidates = np.concatenate([all_y, [1.0]])
    best = 0.0
    unique_x = np.unique(xs)
    for u in np.concatenate([unique_x, [1.0]]):
        j_closed = int(np.searchsorted(xs, u, side="right"))
        j_open = int(np.searchsorted(xs, u, side="left"))
        ys_closed = np.sort(ys[:j_closed])
        ys_open = ys_closed[: j_open] if j_open == j_closed else np.sort(ys[:j_open])
        if j_closed:
            ranks = np.searchsorted(ys_closed, ys_closed, side="right")
            over = np.max(ranks / n - u * ys_closed)
            best = max(best, float(over))
        open_counts = np.searchsorted(ys_open, v_candidates, side="left")
        under = np.max(u * v_candidates - open_counts / n)
        best = max(best, float(under))
    return best
