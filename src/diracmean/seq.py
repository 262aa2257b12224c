"""Deterministic point sequences on the infinite-dimensional unit cube.

Every source is a pure indexed family ``n -> x_n``: coordinate ``k`` of
point ``n`` depends only on ``(n, k)`` and the source parameters, so
truncations of the same point at different ranks agree bit for bit and
concurrent reads need no coordination.  Points are produced lazily, one
rank-``d`` block at a time; nothing ever materializes more coordinates
than its consumer asks for.  Quantile families map whole coordinate
rows (:meth:`QuantileFamily.apply`); a single value is a one-element row.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    QuantileDomain,
    ValidationError,
    as_count,
    as_number,
    as_numbers,
)

__all__ = [
    "PointSource",
    "QuantileFamily",
    "halton_source",
    "weyl_source",
    "pseudorandom_source",
    "convergent_source",
    "pullback_source",
    "uniform_quantiles",
    "normal_quantiles",
    "box_quantiles",
]

UNIT_CUBE = "unit-cube"
REAL_PRODUCT = "real-line-product"

# Denominator bound below which a generator counts as rational.
_RATIONAL_DEN_BOUND = 10**6


class PointSource:
    """Pure indexed family of points, read coordinate-block-wise.

    Subclasses implement :meth:`coordinate_block`; everything else
    (truncation consistency, purity, block assembly) follows from the
    per-coordinate structure.
    """

    kind: str = "abstract"
    codomain: str = UNIT_CUBE

    def coordinate_block(self, indices: range, k: int, out: np.ndarray) -> np.ndarray:
        """Coordinate ``k`` (0-based) of the points ``indices``, a step-1
        ``range`` within int64, written into the float64 row ``out`` and
        returned.

        Values depend only on ``(index, k)``: never on the other indices or
        on the old contents of ``out``.  The built-in kernels work through
        the row in slices of 16384 elements with one small scratch
        array, so they allocate nothing as long as the row.
        """
        raise NotImplementedError

    def block(self, start: int, stop: int, rank: int, out: np.ndarray | None = None) -> np.ndarray:
        """Points ``start..stop-1`` truncated at ``rank``, as a (stop-start, rank) array.

        The block is column-major (Fortran order): each coordinate is
        written as one contiguous column, and the library's actions and
        weights read the columns in place and stay row-pure (a point's
        values do not depend on the block it is evaluated in).  With
        ``out``, a flat float64 buffer of at least ``rank * (stop - start)``
        elements, the block is a view of that buffer and lives only until
        the buffer is written again.
        """
        rank = as_count("rank", rank, 1)
        start = as_count("start", start, 0)
        stop = as_count("stop", stop, start)
        if stop > _MAX_INDEX + 1:
            raise ValidationError("stop", f"must be at most 2^63, so every index fits in int64, "
                                  f"got {stop}")
        size = rank * (stop - start)
        if out is None:
            out = np.empty(size)
        elif out.dtype != np.float64 or out.ndim != 1 or len(out) < size:
            raise ValidationError(
                "out", f"must be a flat float64 buffer of at least {size} elements, "
                f"got {out.dtype} of shape {out.shape}"
            )
        rows = out[:size].reshape(rank, stop - start)
        for k in range(rank):
            self.coordinate_block(range(start, stop), k, rows[k])
        return rows.T


_MAX_INDEX = 2**63 - 1
# Elements per slice of a coordinate kernel: its scratch stays in cache.
_SLICE = 1 << 14
# 0, 1, ..., _SLICE - 1: a slice's indices are its first index plus this.
_RAMP = np.arange(_SLICE, dtype=np.int64)
_RAMP.flags.writeable = False
# The same ramp in float64, for indices below 2^53, where each is exact.
_FLOAT_RAMP = _RAMP.astype(np.float64)
_FLOAT_RAMP.flags.writeable = False
# Every integer up to this is an exact float64 value.
_EXACT_INTEGER = 1 << 53


def _slices(m: int):
    return (slice(lo, min(lo + _SLICE, m)) for lo in range(0, m, _SLICE))


def _shifted_start(indices: range, offset: int) -> int:
    """``indices.start + offset``, once every shifted index is known to fit
    in int64."""
    if len(indices) and indices.stop - 1 + offset > _MAX_INDEX:
        raise ValidationError(
            "index_offset", f"{offset} moves index {indices.stop - 1} past 2^63 - 1"
        )
    return indices.start + offset


def _columns(points: np.ndarray, rank: int) -> np.ndarray:
    """The first ``rank`` columns as a C-contiguous ``(rank, m)`` array.

    A column-major block (every source block) is returned as a view,
    without a copy, so callers must not write into it; any other layout
    is copied.
    """
    return np.ascontiguousarray(points[:, :rank].T)


# ---------------------------------------------------------------------------
# Halton


def _primes(count: int, known: Sequence[int] = ()) -> list[int]:
    """The first ``count`` primes, as a new list continuing ``known``, the
    first primes in order; a candidate is divided only by the primes up to
    its root."""
    primes = list(known)
    candidate = primes[-1] + 1 if primes else 2
    while len(primes) < count:
        root = math.isqrt(candidate)
        if all(candidate % p for p in itertools.takewhile(lambda p: p <= root, primes)):
            primes.append(candidate)
        candidate += 1
    return primes


# Digits per table lookup: the most whose table stays within 2^16 entries.
_TABLE_ENTRIES = 1 << 16
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


def _reversed(value: int, base: int, count: int) -> int:
    """The integer whose ``count`` base-``base`` digits are those of
    ``value`` (``< base**count``) in reverse order."""
    out = 0
    for _ in range(count):
        value, digit = divmod(value, base)
        out = out * base + digit
    return out


def _radical_inverse(first: int, base: int, out: np.ndarray) -> np.ndarray:
    """Van der Corput radical inverse in the given base of each of the
    consecutive indices ``first, first + 1, ...``, written into the float64
    array ``out``.

    With ``D`` digits, the value is ``N / base**D`` for the digit-reversed
    integer ``N``.  The table holds the reversal of the low ``k`` digits,
    and across a run of indices that share their high digits ``q = n //
    base**k`` those low digits are a contiguous table slice, so ``N`` is
    that slice times ``base**(D - k)`` plus the one reversal of ``q``.
    While ``base**D <= 2^53``, ``N`` is built in float64 in ``out`` itself:
    every product and sum on the way is an integer below ``base**D``, so
    each step is exact, and one division by ``base**D`` rounds the
    quotient correctly; past that (indices near the top of int64) the
    quotient of the exact Python integers is taken, which Python also
    rounds correctly.  Values that round to 1.0 are returned as the largest
    float below 1, so the result always lies in [0, 1) and within 1 ulp of
    the exact radical inverse.
    """
    k, table = _digit_table(base)
    step = base**k
    width = _digits((first + len(out) - 1) // step, base)
    scale, den = base**width, base ** (k + width)
    exact = den <= _EXACT_INTEGER
    q, lo = divmod(first, step)
    at = 0
    while at < len(out):
        stop = min(at + step - lo, len(out))
        low, high = table[lo : lo + stop - at], _reversed(q, base, width)
        if exact:
            np.multiply(low, float(scale), out=out[at:stop], dtype=np.float64)
            out[at:stop] += float(high)
        else:
            out[at:stop] = [min((t * scale + high) / den, _BELOW_ONE) for t in low.tolist()]
        at, q, lo = stop, q + 1, 0
    if exact:
        out /= float(den)
    return out


class HaltonSource(PointSource):
    kind = "halton"
    codomain = UNIT_CUBE

    def __init__(self, index_offset: int = 0):
        self.index_offset = as_count("index_offset", index_offset, 0)
        self._bases: list[int] = []

    def _base(self, k: int) -> int:
        # Swapped in whole, so a concurrent reader never sees a partial list.
        bases = self._bases
        if len(bases) <= k:
            bases = self._bases = _primes(k + 1, bases)
        return bases[k]

    def coordinate_block(self, indices, k, out):
        base = self._base(k)
        first = _shifted_start(indices, self.index_offset)
        for s in _slices(len(out)):
            _radical_inverse(first + s.start, base, out[s])
        return out


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


def _fraction(alpha) -> Fraction:
    """The exact value of a generator written as a decimal string or number."""
    try:
        return Fraction(str(alpha))
    except ValueError:
        raise ValidationError("alphas", f"generator {alpha!r} is not a decimal number") from None


# Bits of pi**k behind a default Weyl generator's fractional part; 64 and
# 1024 give the same float64 generators for every power up to pi**200.
_PI_POWER_BITS = 256
# Bits of pi beyond those the kept bits and the power's error growth use
# up; the Machin series' truncation, 20 units per term, stays far below
# 2^64 units.
_GUARD_BITS = 64


def _arctan_inverse(x: int, one: int) -> int:
    """``arctan(1 / x) * one``, to within a unit per series term, by the
    alternating series in integers scaled by ``one``."""
    term = one // x
    total, n, sign = term, 1, -1
    x2 = x * x
    while term:
        term //= x2
        n += 2
        total += sign * (term // n)
        sign = -sign
    return total


def _pi_power_fraction(k: int) -> Fraction:
    """Fractional part of pi**k to ``_PI_POWER_BITS`` + 2k bits, truncated,
    as an exact dyadic rational.

    pi comes from Machin's formula ``pi = 16 atan(1/5) - 4 atan(1/239)``
    in integers scaled by 2^bits, off by at most 20 units per series
    term.  Its k-th power is taken exactly, so the only error is pi's,
    grown at most k * 4^(k-1) times; ``bits`` covers that growth and the
    kept bits with ``_GUARD_BITS`` to spare, so the result is within
    2^-(``_PI_POWER_BITS`` + 2k) of the exact fractional part."""
    keep = _PI_POWER_BITS + 2 * k
    bits = keep + 2 * k + k.bit_length() + _GUARD_BITS
    one = 1 << bits
    pi = 16 * _arctan_inverse(5, one) - 4 * _arctan_inverse(239, one)
    power = pi**k
    fraction = (power & ((1 << (bits * k)) - 1)) >> (bits * k - keep)
    return Fraction(fraction, 1 << keep)


class WeylSource(PointSource):
    kind = "weyl"
    codomain = UNIT_CUBE

    def __init__(self, alphas: Sequence[str | float] | None = None, index_offset: int = 0):
        self.index_offset = as_count("index_offset", index_offset, 0)
        self._explicit = None
        if alphas is not None:
            self._explicit = [self._check(_fraction(a), str(a)) for a in alphas]
        self._cache: list[float] = list(self._explicit or [])

    @staticmethod
    def _check(frac: Fraction, label: str) -> float:
        if not (0 < frac < 1):
            raise ValidationError("alphas", f"generator {label} must lie strictly in (0, 1)")
        if _rational_denominator_at_most(frac, _RATIONAL_DEN_BOUND):
            raise ValidationError(
                "alphas",
                f"generator {label} is rational-looking "
                f"(denominator <= {_RATIONAL_DEN_BOUND}); the sequence would be periodic"
            )
        return float(frac)

    def generator(self, k: int) -> float:
        """The multiplier for coordinate ``k`` (0-based)."""
        if self._explicit is not None:
            if k >= len(self._explicit):
                raise ValidationError(
                    "alphas", f"only {len(self._explicit)} generators were supplied; "
                    f"coordinate {k + 1} was requested"
                )
            return self._explicit[k]
        # Extended aside and swapped in whole, so concurrent first uses
        # never append the same generator twice.
        cache = self._cache
        if len(cache) <= k:
            cache = list(cache)
            for j in range(len(cache) + 1, k + 2):
                cache.append(self._check(_pi_power_fraction(j), f"frac(pi^{j})"))
            self._cache = cache
        return cache[k]

    def coordinate_block(self, indices, k, out):
        """``frac(n * alpha_k)`` of each shifted index ``n``.  While every
        index is below 2^53 it is formed as an exact float64 value, so the
        product has the bits of the int64-times-float64 product, whose
        cast is exact there; from 2^53 on the indices are formed in int64
        and numpy casts them in the product."""
        alpha = self.generator(k)
        first = _shifted_start(indices, self.index_offset)
        exact = first + len(out) <= _EXACT_INTEGER
        # One scratch slice: the int64 indices past 2^53, then the floor of
        # the product.
        floor = np.empty(min(len(out), _SLICE))
        shifted = floor.view(np.int64)
        for s in _slices(len(out)):
            prod, n = out[s], s.stop - s.start
            if exact:
                np.add(_FLOAT_RAMP[:n], float(first + s.start), out=prod)
                prod *= alpha
            else:
                np.add(_RAMP[:n], first + s.start, out=shifted[:n])
                np.multiply(shifted[:n], alpha, out=prod)
            np.floor(prod, out=floor[:n])
            prod -= floor[:n]
        return out


def weyl_source(
    alphas: Sequence[str | float] | None = None,
    index_offset: int = 0,
) -> PointSource:
    """Kronecker/Weyl points: coordinate ``k`` of point ``n`` is
    ``frac(n * alpha_k)``.

    Parameters
    ----------
    alphas
        Generators in (0, 1), preferably as decimal strings so no digit
        is lost before the rationality check.  When omitted, coordinate
        ``k`` uses ``frac(pi**(k+1))`` computed with at least 256 bits (a
        float64 ``pi**k`` loses its entire fractional part near k ~ 30).
    index_offset
        Shift of the index; point 0 of the unshifted sequence is exactly
        the origin, so use an offset >= 1 before a quantile pullback.

    Raises
    ------
    ValidationError
        If a generator is not a decimal number in (0, 1), or is
        (indistinguishable from) a rational with denominator <= 10^6,
        detected by continued-fraction expansion.
    """
    return WeylSource(alphas, index_offset)


# ---------------------------------------------------------------------------
# Counter-based pseudorandom

_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)
_KEY_N = 0x9E3779B97F4A7C15
_KEY_K = 0xC2B2AE3D27D4EB4F
_KEY_SEED = 0xD6E8FEB86659FD93
_MASK64 = 2**64 - 1
# i * K_N for i < _SLICE, wrapping: (n0 + i) * K_N is n0 * K_N plus this.
_KEY_RAMP = _RAMP.astype(np.uint64) * np.uint64(_KEY_N)
_KEY_RAMP.flags.writeable = False


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of ``z``, in place, with ``tmp`` as scratch."""
    for shift, mul in ((30, _MIX_MUL1), (27, _MIX_MUL2), (31, None)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        if mul is not None:
            z *= mul
    return z


class PseudorandomSource(PointSource):
    kind = "pseudorandom"
    codomain = UNIT_CUBE

    def __init__(self, seed: int):
        self.seed = as_count("seed", seed) & _MASK64

    def coordinate_block(self, indices, k, out):
        # The key is n * K_N ^ (k + 1) * K_K ^ seed * K_SEED in wrapping
        # 64-bit arithmetic; the hash runs in place on the row's bits.
        salt = np.uint64(((k + 1) * _KEY_K ^ self.seed * _KEY_SEED) & _MASK64)
        bits = out.view(np.uint64)
        tmp = np.empty(min(len(out), _SLICE), dtype=np.uint64)
        for s in _slices(len(out)):
            z, n = bits[s], s.stop - s.start
            key = np.uint64((indices.start + s.start) * _KEY_N & _MASK64)
            np.add(_KEY_RAMP[:n], key, out=z)
            z ^= salt
            _mix64(z, tmp[:n])
            z >>= np.uint64(11)
            # Below 2^53 the bits convert exactly, and faster as int64.
            np.multiply(z.view(np.int64), 2.0**-53, out=out[s])
        return out


def pseudorandom_source(seed: int) -> PointSource:
    """Counter-based uniform pseudorandom points: coordinate ``(n, k)`` is
    a pure 64-bit hash of ``(seed, n, k)`` mapped to [0, 1).  Stateless,
    hence truncation-consistent and safe to index from any worker."""
    return PseudorandomSource(seed)


# ---------------------------------------------------------------------------
# Convergent


def _per_coordinate(values: tuple[float, ...], k: int) -> float:
    return values[min(k, len(values) - 1)]


class ConvergentSource(PointSource):
    kind = "convergent"
    codomain = UNIT_CUBE

    def __init__(
        self,
        target: float | Sequence[float],
        rate: float,
        offset: float | Sequence[float] = 1.0,
    ):
        self.rate = as_number("rate", rate, 0.0, 1.0)
        self.target = as_numbers("target", target)
        self.offset = as_numbers("offset", offset)

    def coordinate_block(self, indices, k, out):
        for s in _slices(len(out)):
            np.add(_RAMP[: s.stop - s.start], indices.start + s.start, out=out[s])
        with np.errstate(under="ignore"):
            np.power(self.rate, out, out=out)
            out *= _per_coordinate(self.offset, k)
            out += _per_coordinate(self.target, k)
        return np.clip(out, 0.0, 1.0, out=out)


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
    measure on the real line.  ``density`` is that measure's density up to
    a constant, read from a block's columns, or ``None`` where constant."""

    family: str = "abstract"
    density = None

    def apply(self, k: int, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Quantiles of coordinate ``k`` at ``u``, written into ``out`` (which
        may be ``u`` itself) when given."""
        raise NotImplementedError

    def domain(self, rank: int, truncation: float) -> tuple[tuple[float, float], ...]:
        """The box of the first ``rank`` axes the oracle integrates over; an
        unbounded axis is cut at ``truncation`` times the widest scale."""
        raise NotImplementedError


class UniformQuantiles(QuantileFamily):
    """Identity transform: the product measure is uniform on [0, 1]^N."""

    family = "uniform"

    def apply(self, k: int, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return np.asarray(u, dtype=np.float64)
        out[...] = u
        return out

    def domain(self, rank: int, truncation: float) -> tuple[tuple[float, float], ...]:
        return ((0.0, 1.0),) * rank


class NormalQuantiles(QuantileFamily):
    """Centered normal quantiles with per-coordinate standard deviations.

    The quantile is ``scipy.special.ndtri``, imported when the family is
    built: a run that builds no normal family never loads ``scipy``, and
    one that does pays for the import before its first ``apply``.
    """

    family = "normal"

    def __init__(self, widths: float | Sequence[float] = 1.0):
        from scipy.special import ndtri

        self.widths = as_numbers("widths", widths, 0.0)
        self._ndtri = ndtri

    def apply(self, k: int, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.multiply(self._ndtri(u, out=out), _per_coordinate(self.widths, k), out=out)

    def density(self, points: np.ndarray) -> np.ndarray:
        """``exp(-sum_k (x_k / sigma_k)^2 / 2)`` over every column, summed in
        coordinate order; an overflowing square gives the exact limit 0."""
        cols = _columns(points, points.shape[1])
        with np.errstate(over="ignore", under="ignore"):
            q = np.divide(cols[0], self.widths[0])
            q *= q
            tmp = np.empty_like(q)
            for k in range(1, len(cols)):
                np.divide(cols[k], _per_coordinate(self.widths, k), out=tmp)
                tmp *= tmp
                q += tmp
            q *= -0.5
            return np.exp(q, out=q)

    def domain(self, rank: int, truncation: float) -> tuple[tuple[float, float], ...]:
        half = truncation * max(self.widths)
        return ((-half, half),) * rank


class BoxQuantiles(QuantileFamily):
    """Uniform measure on the centered box [-half_width, half_width] per
    coordinate (a finite stand-in for Lebesgue measure)."""

    family = "uniform-box"

    def __init__(self, half_width: float | Sequence[float]):
        self.half_widths = as_numbers("half_width", half_width, 0.0)

    def apply(self, k: int, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(u, 2.0, out=out)
        out -= 1.0
        return np.multiply(out, _per_coordinate(self.half_widths, k), out=out)

    def domain(self, rank: int, truncation: float) -> tuple[tuple[float, float], ...]:
        hs = [_per_coordinate(self.half_widths, k) for k in range(rank)]
        return tuple((-h, h) for h in hs)


def uniform_quantiles() -> QuantileFamily:
    return UniformQuantiles()


def normal_quantiles(widths: float | Sequence[float] = 1.0) -> QuantileFamily:
    return NormalQuantiles(widths)


def box_quantiles(half_width: float | Sequence[float]) -> QuantileFamily:
    return BoxQuantiles(half_width)


class PullbackSource(PointSource):
    kind = "pullback"
    codomain = REAL_PRODUCT

    def __init__(self, base: PointSource, quantiles: QuantileFamily):
        if base.codomain != UNIT_CUBE:
            raise ValidationError("base", f"must have a {UNIT_CUBE} codomain, got {base.codomain}")
        self.base = base
        self.quantiles = quantiles

    def coordinate_block(self, indices, k, out):
        u = self.base.coordinate_block(indices, k, out)
        for s in _slices(len(u)):
            row = u[s]
            edge = (row == 0.0) | (row == 1.0)
            if edge.any():
                bad = indices.start + s.start + int(np.argmax(edge))
                raise QuantileDomain(
                    f"base coordinate {k + 1} of point {bad} is exactly 0 or 1; "
                    "use an index offset >= 1 on the base sequence"
                )
            self.quantiles.apply(k, row, out=row)
        return u


def pullback_source(base: PointSource, quantiles: QuantileFamily) -> PointSource:
    """Map a cube source through per-coordinate quantile functions, turning
    uniform coordinates into samples of a product measure on R^N."""
    return PullbackSource(base, quantiles)
