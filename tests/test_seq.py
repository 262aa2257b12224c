"""Point source behavior: indexing, truncation, certification, discrepancy."""

import math
import threading
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import qmc

from diracmean import seq
from diracmean.cylinder import hierarchy_certify
from diracmean.errors import QuantileDomain, ValidationError
from diracmean.oracle import normalized_expectation


class ArraySource(seq.PointSource):
    """Fixed finite point set, read by indexing an array with the range."""

    kind = "fixed"
    codomain = seq.UNIT_CUBE

    def __init__(self, arr):
        self.arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))

    def coordinate_block(self, indices, k, out):
        out[...] = self.arr[indices, k]
        return out


def constant_source(value=0.3):
    return seq.convergent_source(value, 0.5, 0.0)


def point(src, n, d):
    """The rank-``d`` truncation of point ``n``, read as a one-row block."""
    return tuple(src.block(n, n + 1, d)[0].tolist())


def test_a_custom_source_may_index_an_array_with_its_range():
    arr = np.arange(24.0).reshape(8, 3) / 24.0
    assert np.array_equal(ArraySource(arr).block(2, 7, 3), arr[2:7])


# ---------------------------------------------------------------------------
# halton


def test_halton_hand_values():
    h = seq.halton_source(0)
    assert point(h, 1, 1) == (0.5,)
    assert point(h, 3, 1) == (0.75,)
    p = h.block(2, 3, 2)[0]
    assert p[0] == 0.25
    assert p[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert p.shape == (2,)


def test_halton_offset_shifts_indexing():
    h0 = seq.halton_source(0)
    h1 = seq.halton_source(1)
    assert point(h1, 1, 1) == point(h0, 2, 1)
    assert point(h1, 0, 3) == point(h0, 1, 3)


HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)
BELOW_ONE = math.nextafter(1.0, 0.0)


def radical_inverse_fraction(n, base):
    """Exact radical inverse of ``n``, digit by digit."""
    value, scale = Fraction(0), Fraction(1, base)
    while n:
        n, digit = divmod(n, base)
        value += digit * scale
        scale /= base
    return value


def halton_coordinate(n, k):
    return float(seq.halton_source(0).coordinate_block(range(n, n + 1), k, np.empty(1))[0])


def assert_rounded(x, exact):
    """``x`` is ``exact`` correctly rounded, or the largest float below 1
    where that rounding gives 1.0; within 1 ulp either way."""
    assert 0.0 <= x < 1.0
    assert x == (float(exact) if float(exact) < 1.0 else BELOW_ONE)
    assert abs(Fraction(x) - exact) <= Fraction(math.ulp(float(exact)))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(min_value=0, max_value=len(HALTON_BASES) - 1),
       n=st.integers(min_value=0, max_value=2**63 - 1))
def test_halton_matches_exact_fraction(k, n):
    assert_rounded(halton_coordinate(n, k), radical_inverse_fraction(n, HALTON_BASES[k]))


@pytest.mark.parametrize("k, n", [(0, 2**63 - 1), (1, 3**39 - 1), (2, 5**27 - 1),
                                  (1, 3**33), (1, 3**33 * 1642), (0, 2**53 - 1),
                                  (2, 5**22 - 1), (3, 7**18 + 1)])
def test_halton_extreme_indices(k, n):
    assert_rounded(halton_coordinate(n, k), radical_inverse_fraction(n, HALTON_BASES[k]))


def exact_head(base):
    """The largest power of ``base`` within 2^53: from there on a radical
    inverse's digit-reversed numerator is no longer an exact float64."""
    return base ** (len(np.base_repr(2**53, base)) - 1)


def test_halton_value_does_not_depend_on_the_block():
    h = seq.halton_source(0)
    for k, base in enumerate(HALTON_BASES):
        # Each range reaches across a run of the digit table, and the last
        # across the end of the exact float64 path.
        for n in (5, 3**33 - 1, 2**40 + 3, 2**62 + 11, 7, exact_head(base)):
            idx = range(n - 3, n + 4)
            together = h.coordinate_block(idx, k, np.empty(len(idx)))
            alone = [h.coordinate_block(range(i, i + 1), k, np.empty(1))[0] for i in idx]
            assert together.tolist() == alone


@pytest.mark.parametrize("start", [0, 2**19 - 512])
def test_halton_agrees_with_scipy(start):
    # scipy sums the digits one rounded term at a time; over indices below
    # 2^20 that sum lies up to 4 ulp from the correctly rounded value.
    engine = qmc.Halton(d=len(HALTON_BASES), scramble=False)
    engine.fast_forward(start)
    ref = engine.random(1024)
    ours = seq.halton_source(0).block(start, start + 1024, len(HALTON_BASES))
    assert np.all(np.abs(ours - ref) <= 4 * np.spacing(ref))


def test_halton_bases_to_rank_2000_are_the_primes_and_cheap():
    start = time.perf_counter()
    first = seq.halton_source(0).block(1, 2, 2000)[0]  # coordinate k of point 1 is 1 / base_k
    elapsed = time.perf_counter() - start
    bases = np.rint(1.0 / first).astype(np.int64)
    assert bases[-1] == 17389  # the 2000th prime
    sieve = np.ones(bases[-1] + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bases[-1]) + 1):
        sieve[p * p::p] = False
    assert bases.tolist() == np.flatnonzero(sieve).tolist()
    assert elapsed < 0.5


def test_point_at_validates_arguments():
    h = seq.halton_source(0)
    with pytest.raises(ValueError):
        h.block(-1, 0, 1)[0]
    with pytest.raises(ValueError):
        h.block(0, 1, 0)[0]


@pytest.mark.parametrize("make", [lambda: seq.halton_source(3),
                                  lambda: seq.weyl_source(index_offset=3)],
                         ids=["halton", "weyl"])
def test_an_index_offset_past_int64_is_rejected_naming_it(make):
    with pytest.raises(ValidationError, match="^index_offset: "):
        make().block(2**63 - 2, 2**63 - 1, 2)
    # The last index that fits after the offset is still read.  (Weyl reads
    # 0 there: its float64 products are whole numbers that far out.)
    last = make().block(2**63 - 4, 2**63 - 3, 2)
    assert ((0.0 <= last) & (last < 1.0)).all()


def test_block_rejects_an_index_past_int64():
    with pytest.raises(ValidationError, match="^stop: "):
        seq.pseudorandom_source(1).block(2**63 - 1, 2**63 + 1, 1)
    assert seq.pseudorandom_source(1).block(2**63 - 1, 2**63, 1).shape == (1, 1)


@pytest.mark.parametrize("make", [
    lambda: seq.halton_source(0),
    lambda: seq.halton_source(3),
    lambda: seq.weyl_source(index_offset=1),
    lambda: seq.pseudorandom_source(12345),
    lambda: seq.convergent_source(0.2, 0.5, 0.7),
    lambda: seq.pullback_source(seq.halton_source(1), seq.normal_quantiles()),
])
def test_truncation_consistency_and_purity(make):
    src = make()
    wide = src.block(0, 64, 5)
    for d in (1, 2, 4):
        narrow = src.block(0, 64, d)
        assert np.array_equal(wide[:, :d], narrow)
    again = src.block(0, 64, 5)
    assert np.array_equal(wide, again)
    assert point(src, 17, 3) == point(src, 17, 3)


@pytest.mark.parametrize("make", [
    lambda: seq.halton_source(3),
    lambda: seq.weyl_source(index_offset=1),
    lambda: seq.pseudorandom_source(12345),
    lambda: seq.convergent_source(0.2, 0.5, 0.7),
    lambda: seq.pullback_source(seq.halton_source(1), seq.normal_quantiles([1.0, 2.0])),
    lambda: seq.pullback_source(seq.weyl_source(index_offset=1), seq.box_quantiles(3.0)),
], ids=["halton", "weyl", "pseudorandom", "convergent", "pullback-normal", "pullback-box"])
@pytest.mark.parametrize("start, stop, rank", [(0, 1, 1), (5, 6, 4), (7, 300, 1), (11, 300, 5)])
def test_blocks_are_column_major_and_agree_with_coordinates_and_points(make, start, stop, rank):
    src = make()
    block = src.block(start, stop, rank)
    assert block.shape == (stop - start, rank)
    assert block.flags.f_contiguous
    idx = range(start, stop)
    for k in range(rank):
        assert np.array_equal(block[:, k], src.coordinate_block(idx, k, np.empty(len(idx))))
    for n in (0, (stop - start) // 2, stop - start - 1):
        assert tuple(block[n].tolist()) == point(src, start + n, rank)


# ---------------------------------------------------------------------------
# the out contract: kernels write into the caller's row, allocating no row

SLICE = 1 << 14
MAX_INDEX = 2**63 - 1
# Row lengths on either side of the kernels' slice boundaries.
LENGTHS = [1, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 7]


def radical_inverse(n, base):
    """Correctly rounded radical inverse of every index, reversing one digit
    per pass over the whole array; exact integers where they pass 2^64."""
    top = int(n.max())
    count = len(np.base_repr(top, base)) if top else 0
    den = base**count
    rest = n.astype(np.uint64 if den < 2**64 else object)
    num = np.zeros_like(rest)
    for _ in range(count):
        rest, digit = rest // base, rest % base
        num = num * base + digit
    inv = num / float(den) if den <= 2**53 else np.array([a / den for a in num.tolist()])
    return np.minimum(inv, BELOW_ONE)


def weyl_frac(n, alpha):
    prod = n * alpha
    return prod - np.floor(prod)


def splitmix_uniform(n, k, seed):
    """The counter hash of the pseudorandom source, as one expression per step."""
    with np.errstate(over="ignore"):
        z = (n.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             ^ np.uint64(k + 1) * np.uint64(0xC2B2AE3D27D4EB4F)
             ^ np.uint64(seed) * np.uint64(0xD6E8FEB86659FD93))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def quantiles_of(u, quantile):
    """``quantile(u)``, or the domain error of the pullback where ``u`` has an
    exact 0 or 1."""
    if np.any((u == 0.0) | (u == 1.0)):
        raise QuantileDomain("exact 0 or 1")
    return quantile(u)


def convergent(n, k):
    with np.errstate(under="ignore"):
        return np.clip(0.2 + 0.7 * np.power(0.5, n.astype(np.float64)), 0.0, 1.0)


# Each built-in source, the largest index offset it adds, and the whole-array
# formula of coordinate k at indices n.
OUT_CASES = {
    "halton": (lambda: seq.halton_source(3), 3,
               lambda n, k: radical_inverse(n + 3, HALTON_BASES[k])),
    "weyl": (lambda: seq.weyl_source(index_offset=1), 1,
             lambda n, k: weyl_frac(n + 1, seq.weyl_source().generator(k))),
    "pseudorandom": (lambda: seq.pseudorandom_source(12345), 0,
                     lambda n, k: splitmix_uniform(n, k, 12345)),
    "convergent": (lambda: seq.convergent_source(0.2, 0.5, 0.7), 0, convergent),
    "pullback-normal": (
        lambda: seq.pullback_source(seq.halton_source(1), seq.normal_quantiles([1.0, 2.0])), 1,
        lambda n, k: quantiles_of(radical_inverse(n + 1, HALTON_BASES[k]),
                                  lambda u: [1.0, 2.0][min(k, 1)] * ndtri(u))),
    "pullback-box": (
        lambda: seq.pullback_source(seq.weyl_source(index_offset=1), seq.box_quantiles(3.0)), 1,
        lambda n, k: quantiles_of(weyl_frac(n + 1, seq.weyl_source().generator(k)),
                                  lambda u: 3.0 * (2.0 * u - 1.0))),
}


@settings(max_examples=12, deadline=None)
@given(start=st.integers(min_value=0, max_value=MAX_INDEX),
       length=st.sampled_from(LENGTHS),
       k=st.integers(min_value=0, max_value=3))
@pytest.mark.parametrize("name", list(OUT_CASES))
def test_coordinate_block_writes_the_whole_array_formula_into_out(name, start, length, k):
    make, offset, formula = OUT_CASES[name]
    start = min(start, MAX_INDEX - offset - length + 1)
    n = np.arange(start, start + length, dtype=np.int64)
    buf = np.full((4, length + 9), np.nan)
    out = buf[2, 5:5 + length]
    try:
        expected = formula(n, k)
    except QuantileDomain:
        # Far out, float64 Weyl products are whole numbers: frac is exactly 0.
        with pytest.raises(QuantileDomain):
            make().coordinate_block(range(start, start + length), k, out)
        return
    assert make().coordinate_block(range(start, start + length), k, out) is out
    assert out.tobytes() == expected.tobytes()
    # The rest of the buffer is untouched.
    assert np.isnan(buf[[0, 1, 3]]).all() and np.isnan(buf[2, :5]).all()
    assert np.isnan(buf[2, 5 + length:]).all()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=0, max_value=len(HALTON_BASES) - 1),
       length=st.sampled_from(LENGTHS), edge=st.integers(min_value=0, max_value=2),
       scale=st.integers(min_value=1, max_value=MAX_INDEX),
       back=st.integers(min_value=0, max_value=LENGTHS[-1] - 1))
def test_halton_runs_match_the_whole_array_formula(k, length, edge, scale, back):
    # The kernel reads the digit table in runs that end where the high
    # digits change (multiples of base**k), where the digit count grows
    # (base**j) and where the exact float64 path ends (the head power).
    # Each range starts just below one such edge.
    base = HALTON_BASES[k]
    step = base ** seq._digit_table(base)[0]
    if edge == 0:
        at = step * (1 + scale % (MAX_INDEX // step))
    elif edge == 1:
        at = base ** (1 + scale % (len(np.base_repr(MAX_INDEX, base)) - 1))
    else:
        at = exact_head(base)
    start = max(0, min(at - back % length - 1, MAX_INDEX - length + 1))
    out = np.full(length, np.nan)
    seq.halton_source(0).coordinate_block(range(start, start + length), k, out)
    n = np.arange(start, start + length, dtype=np.int64)
    assert out.tobytes() == radical_inverse(n, base).tobytes()


def test_block_fills_a_view_of_the_callers_buffer():
    src = seq.pseudorandom_source(5)
    buf = np.full(3 * (SLICE + 1) + 4, np.nan)
    block = src.block(7, SLICE + 8, 3, buf)
    assert block.flags.f_contiguous and np.shares_memory(block, buf)
    assert np.array_equal(block, src.block(7, SLICE + 8, 3))
    assert np.isnan(buf[3 * (SLICE + 1):]).all()
    with pytest.raises(ValidationError, match="^out: "):
        src.block(0, 10, 3, np.empty(29))


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63, 2**64 - 1])
@settings(max_examples=25, deadline=None)
@given(back=st.integers(min_value=0, max_value=2**20), k=st.integers(min_value=0, max_value=63))
def test_pseudorandom_is_splitmix64_of_python_integers(seed, back, k):
    mask = 2**64 - 1
    n = 2**63 - 1 - back
    z = (n * 0x9E3779B97F4A7C15 ^ (k + 1) * 0xC2B2AE3D27D4EB4F
         ^ seed * 0xD6E8FEB86659FD93) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    assert point(seq.pseudorandom_source(seed), n, k + 1)[k] == (z >> 11) / 2.0**53


@pytest.mark.parametrize("name", list(OUT_CASES))
def test_coordinate_kernels_allocate_no_row(name):
    # The starts reach Halton runs of several digit groups (2^32 + 1000) and
    # a digit-count step (2^19 - 100).  Past 2^53 Halton divides exact
    # Python integers, element by element; that far path is not guarded.
    m = 1 << 18
    src = OUT_CASES[name][0]()
    out = np.empty(m)
    for start in (1000, 2**32 + 1000, 2**19 - 100):
        n = range(start, start + m)
        src.coordinate_block(n, 1, out)  # first use: digit tables, generators
        tracemalloc.start()
        try:
            src.coordinate_block(n, 1, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * 8 / 4, start


def test_cube_sources_stay_in_unit_interval():
    for src in (seq.halton_source(0), seq.weyl_source(), seq.pseudorandom_source(9)):
        block = src.block(0, 2000, 3)
        assert np.all(block >= 0.0) and np.all(block < 1.0)


# ---------------------------------------------------------------------------
# weyl


def test_weyl_hand_values():
    w = seq.weyl_source()
    alpha = w.generator(0)
    assert alpha == pytest.approx(math.pi - 3.0, abs=1e-12)
    assert point(w, 2, 1)[0] == pytest.approx(2 * (math.pi - 3.0), abs=1e-12)
    assert point(w, 0, 1) == (0.0,)


def test_weyl_rejects_rational_generators():
    with pytest.raises(ValidationError):
        seq.weyl_source(["0.5"])
    with pytest.raises(ValidationError):
        seq.weyl_source(["0.141592"])  # exactly rational, denominator <= 1e6
    with pytest.raises(ValidationError):
        seq.weyl_source(["0.5000000000001"])  # astronomically close to 1/2
    with pytest.raises(ValidationError):
        seq.weyl_source(["1.5"])


def test_weyl_accepts_high_precision_irrational_looking():
    w = seq.weyl_source(["0.6180339887498948482045868343656381177203"])
    assert 0 < w.generator(0) < 1


def test_weyl_explicit_generators_bound_the_rank():
    w = seq.weyl_source(["0.6180339887498948482045868343656381177203"])
    with pytest.raises(ValidationError):
        w.block(0, 4, 2)


def test_weyl_default_generators_survive_large_powers():
    # a float64 pi**40 has no fractional bits left; the 256-bit default
    # must still produce a usable generator there.
    w = seq.weyl_source()
    alpha = w.generator(39)
    assert 0.0 < alpha < 1.0


EXACT_EDGE = 2**53


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("length", [2, SLICE + 3])
@pytest.mark.parametrize("where", ["ends-at", "straddles", "starts-at"])
@pytest.mark.parametrize("k", range(4))
def test_weyl_at_the_exact_integer_edge_matches_the_formula(where, length, offset, k):
    # Shifted indices that all lie below 2^53 are formed in float64, any
    # range reaching 2^53 in int64; either way the bits are those of the
    # int64 index times the generator.
    first = {"ends-at": EXACT_EDGE - length, "straddles": EXACT_EDGE - length // 2,
             "starts-at": EXACT_EDGE}[where]
    out = np.full(length, np.nan)
    seq.weyl_source(index_offset=offset).coordinate_block(
        range(first - offset, first - offset + length), k, out)
    n = np.arange(first, first + length, dtype=np.int64)
    assert out.tobytes() == weyl_frac(n, seq.weyl_source().generator(k)).tobytes()


def test_weyl_generators_survive_a_concurrent_first_use(monkeypatch):
    # Two threads that build the first generator together must leave one
    # copy of it, so coordinate 2 does not repeat coordinate 1.
    original = seq._pi_power_fraction
    meet = threading.Barrier(2)

    def slow(k):
        meet.wait(timeout=10)
        time.sleep(0.01)
        return original(k)

    monkeypatch.setattr(seq, "_pi_power_fraction", slow)
    source = seq.weyl_source()
    threads = [threading.Thread(target=source.generator, args=(0,)) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    monkeypatch.undo()
    assert [source.generator(0), source.generator(1)] == \
        [float(original(1)), float(original(2))]


def test_weyl_default_generators_match_mpmath():
    # The integer series for pi against mpmath's frac(pi**k) at the same
    # 256 + 2k bits of working precision, for every power up to pi**200.
    generators = seq.weyl_source()
    for k in range(1, 201):
        with mpmath.workprec(256 + 2 * k):
            ref = mpmath.frac(mpmath.pi**k)
        assert generators.generator(k - 1) == float(ref), f"frac(pi^{k})"
        frac = seq._pi_power_fraction(k)
        with mpmath.workprec(4 * (256 + 2 * k)):
            error = mpmath.mpf(frac.numerator) / frac.denominator - mpmath.frac(mpmath.pi**k)
            assert abs(error) <= mpmath.ldexp(1, -(256 + 2 * k)), f"frac(pi^{k})"


# ---------------------------------------------------------------------------
# pseudorandom


def test_pseudorandom_is_deterministic_and_seed_sensitive():
    a = seq.pseudorandom_source(1)
    b = seq.pseudorandom_source(2)
    assert point(a, 0, 2) == point(a, 0, 2)
    assert point(a, 0, 1) != point(b, 0, 1)


def test_pseudorandom_chi_square_passes():
    src = seq.pseudorandom_source(2024)
    report = hierarchy_certify(src, [1], 10**4)[0]
    assert report.passed


# ---------------------------------------------------------------------------
# convergent


def test_convergent_geometric_decay():
    c = seq.convergent_source(0.0, 0.5)
    assert point(c, 3, 1) == (0.125,)
    assert point(c, 0, 1) == (1.0,)  # offset point, clamped
    assert point(c, 60, 1)[0] == pytest.approx(0.0, abs=1e-15)


def test_convergent_rejects_bad_rate():
    with pytest.raises(ValueError):
        seq.convergent_source(0.0, 1.5)
    with pytest.raises(ValueError):
        seq.convergent_source(0.0, 0.0)


def test_convergent_per_coordinate_parameters():
    c = seq.convergent_source([0.1, 0.2], 0.5, [0.4, 0.0])
    p = point(c, 1, 3)
    assert p[0] == pytest.approx(0.1 + 0.2)
    assert p[1] == pytest.approx(0.2)
    assert p[2] == pytest.approx(0.2)  # sequences extend with the last entry


# ---------------------------------------------------------------------------
# quantiles / pullback


def test_normal_quantiles_median_and_known_value():
    # independent oracle: Phi(1) via the error function
    u = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    median, near, one = seq.normal_quantiles().apply(0, np.array([0.5, 0.8413447, u]))
    assert median == 0.0
    assert near == pytest.approx(1.0, abs=1e-4)
    assert one == pytest.approx(1.0, abs=1e-12)
    median, one_sigma = seq.normal_quantiles([2.0]).apply(0, np.array([0.5, 0.8413447447]))
    assert median == 0.0
    assert one_sigma == pytest.approx(2.0, abs=1e-6)


def test_quantile_families_are_monotone_with_correct_median():
    us = np.linspace(0.01, 0.99, 37)
    for fam, median in [
        (seq.normal_quantiles([1.0, 2.0]), 0.0),
        (seq.uniform_quantiles(), 0.5),
        (seq.box_quantiles(8.0), 0.0),
    ]:
        for k in (0, 1):
            vals = fam.apply(k, us)
            assert np.all(np.diff(vals) >= 0)
            assert fam.apply(k, np.array([0.5]))[0] == pytest.approx(median, abs=1e-15)


@pytest.mark.parametrize("family, second_moments", [
    (seq.uniform_quantiles(), (1.0 / 3.0, 1.0 / 3.0)),
    (seq.normal_quantiles([1.0, 0.5]), (1.0, 0.25)),
    (seq.box_quantiles([1.0, 2.0]), (1.0 / 3.0, 4.0 / 3.0)),
], ids=["uniform", "normal", "uniform-box"])
def test_family_density_on_its_domain_gives_closed_form_second_moments(family, second_moments):
    domain = family.domain(2, 8.0)
    density = family.density or (lambda x: np.ones(len(x)))
    for k, moment in enumerate(second_moments):
        value, _ = normalized_expectation(lambda x, k=k: x[:, k] ** 2, density, domain)
        assert abs(value - moment) <= 1e-9


def test_uniform_pullback_is_identity():
    base = seq.halton_source(1)
    pb = seq.pullback_source(base, seq.uniform_quantiles())
    assert np.array_equal(pb.block(0, 50, 3), base.block(0, 50, 3))
    assert pb.codomain == seq.REAL_PRODUCT


def test_pullback_rejects_exact_zero_coordinate():
    pb = seq.pullback_source(seq.weyl_source(), seq.normal_quantiles())
    with pytest.raises(QuantileDomain):
        pb.block(0, 4, 1)  # weyl point 0 is exactly the origin
    ok = seq.pullback_source(seq.weyl_source(index_offset=1), seq.normal_quantiles())
    assert np.isfinite(ok.block(0, 4, 1)).all()


def test_pullback_names_the_point_whose_base_coordinate_is_an_edge():
    # frac((n + 1) * alpha) of the float64 product is exactly 0 at this index.
    pb = seq.pullback_source(seq.weyl_source(index_offset=1), seq.box_quantiles(3.0))
    bad = 34359635698
    for start in (bad - 8, bad - SLICE - 5):
        with pytest.raises(QuantileDomain, match=f" of point {bad} is "):
            pb.block(start, bad + 2, 1)


def test_pullback_requires_cube_base():
    pb = seq.pullback_source(seq.halton_source(1), seq.normal_quantiles())
    with pytest.raises(ValueError):
        seq.pullback_source(pb, seq.normal_quantiles())


def test_nonpositive_widths_rejected():
    for widths in ([1.0, 0.0], [1.0, -0.5], []):
        with pytest.raises(ValidationError):
            seq.normal_quantiles(widths)
    with pytest.raises(ValidationError):
        seq.box_quantiles(-1.0)


# ---------------------------------------------------------------------------
# equidistribution


def test_halton_rank2_four_bins_passes():
    # 100 points fill 4^2 cells with 5 expected counts each, but not 8^2.
    report = hierarchy_certify(seq.halton_source(0), [2], 100)[0]
    assert report.bins_per_axis == 4
    assert report.passed
    assert report.statistic <= report.threshold


def test_weyl_rank1_threshold_matches_chi_square_table():
    report = hierarchy_certify(seq.weyl_source(), [1], 10**4)[0]
    assert report.bins_per_axis == 16
    assert report.threshold == pytest.approx(37.70, abs=0.01)
    assert report.statistic <= 37.70
    assert report.passed


@pytest.mark.parametrize("rank,bins", [(1, 16), (2, 8), (3, 4)])
@pytest.mark.parametrize("make", [seq.halton_source, lambda: seq.weyl_source()])
def test_low_discrepancy_sources_pass_ranks_1_to_3(make, rank, bins):
    report = hierarchy_certify(make(), [rank], 10**4)[0]
    assert report.bins_per_axis == bins
    assert report.passed


def test_constant_source_fails_at_the_level():
    report = hierarchy_certify(constant_source(), [1], 10**4)[0]
    assert not report.passed
    # all mass in one bin: statistic is N (bins - 1) in closed form
    assert report.statistic == pytest.approx(10**4 * 15, rel=1e-12)


def test_sample_count_boundary_is_accepted():
    # 2 bins at rank 1 need 2 * 5 points.
    report = hierarchy_certify(seq.halton_source(0), [1], 10)[0]
    assert (report.sample_count, report.bins_per_axis) == (10, 2)
    with pytest.raises(ValidationError, match="^sample_count: "):
        hierarchy_certify(seq.halton_source(0), [1], 9)


def test_equidistribution_requires_cube_codomain():
    pb = seq.pullback_source(seq.halton_source(1), seq.normal_quantiles())
    with pytest.raises(ValueError):
        hierarchy_certify(pb, [1], 1000)


def test_report_pass_iff_statistic_below_threshold():
    good = hierarchy_certify(seq.halton_source(0), [1], 10**4)[0]
    bad = hierarchy_certify(constant_source(), [1], 10**4)[0]
    for r in (good, bad):
        assert r.passed == (r.statistic <= r.threshold)
        d = r.to_dict()
        assert d["pass"] == r.passed


# ---------------------------------------------------------------------------
# star discrepancy


def brute_star_1d(pts):
    n = len(pts)
    best = 0.0
    for u in np.concatenate([pts, [1.0]]):
        best = max(best, np.sum(pts <= u) / n - u, u - np.sum(pts < u) / n)
    return best


def test_star_discrepancy_halton_100():
    d = brute_star_1d(seq.halton_source(0).block(0, 100, 1)[:, 0])
    assert d == pytest.approx(0.023125, abs=1e-12)  # frozen exact value
    assert d <= 0.035


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_halton_discrepancy_below_log_bound(n):
    assert brute_star_1d(seq.halton_source(0).block(0, n, 1)[:, 0]) < 2.0 * math.log(n) / n
