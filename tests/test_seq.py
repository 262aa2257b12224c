"""Point source behavior: indexing, truncation, certification, discrepancy."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from diracmean import seq
from diracmean.errors import (
    BadGenerator,
    InsufficientSample,
    NonpositiveWidth,
    QuantileDomain,
    RankUnsupported,
)


class ArraySource(seq.PointSource):
    """Fixed finite point set, for discrepancy oracles."""

    kind = "fixed"
    codomain = seq.UNIT_CUBE

    def __init__(self, arr):
        self.arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))

    def coordinate_block(self, indices, k):
        return self.arr[indices, k]


def constant_source(value=0.3):
    return seq.convergent_source(value, 0.5, 0.0)


# ---------------------------------------------------------------------------
# point_at / halton


def test_halton_hand_values():
    h = seq.halton_source(0)
    assert seq.point_at(h, 1, 1).coords == (0.5,)
    assert h.point_at(3, 1).coords == (0.75,)
    p = h.point_at(2, 2)
    assert p.coords[0] == 0.25
    assert p.coords[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert p.rank == 2


def test_halton_offset_shifts_indexing():
    h0 = seq.halton_source(0)
    h1 = seq.halton_source(1)
    assert h1.point_at(1, 1).coords == h0.point_at(2, 1).coords
    assert h1.point_at(0, 3).coords == h0.point_at(1, 3).coords


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
    return float(seq.halton_source(0).coordinate_block(np.array([n], dtype=np.int64), k)[0])


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


def test_halton_value_does_not_depend_on_the_block():
    h = seq.halton_source(0)
    for k in range(len(HALTON_BASES)):
        idx = np.array([5, 3**33 - 1, 2**40 + 3, 2**62 + 11, 7], dtype=np.int64)
        together = h.coordinate_block(idx, k)
        alone = [h.coordinate_block(idx[i:i + 1], k)[0] for i in range(len(idx))]
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


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, diracmean; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "False"


def test_point_at_validates_arguments():
    h = seq.halton_source(0)
    with pytest.raises(ValueError):
        h.point_at(-1, 1)
    with pytest.raises(ValueError):
        h.point_at(0, 0)


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
    p1 = src.point_at(17, 3)
    p2 = src.point_at(17, 3)
    assert p1.coords == p2.coords


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
    idx = np.arange(start, stop, dtype=np.int64)
    for k in range(rank):
        assert np.array_equal(block[:, k], src.coordinate_block(idx, k))
    for n in (0, (stop - start) // 2, stop - start - 1):
        assert tuple(block[n].tolist()) == src.point_at(start + n, rank).coords


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
    assert w.point_at(2, 1).coords[0] == pytest.approx(2 * (math.pi - 3.0), abs=1e-12)
    assert w.point_at(0, 1).coords == (0.0,)


def test_weyl_rejects_rational_generators():
    with pytest.raises(BadGenerator):
        seq.weyl_source(["0.5"])
    with pytest.raises(BadGenerator):
        seq.weyl_source(["0.141592"])  # exactly rational, denominator <= 1e6
    with pytest.raises(BadGenerator):
        seq.weyl_source(["0.5000000000001"])  # astronomically close to 1/2
    with pytest.raises(BadGenerator):
        seq.weyl_source(["1.5"])


def test_weyl_accepts_high_precision_irrational_looking():
    w = seq.weyl_source(["0.6180339887498948482045868343656381177203"])
    assert 0 < w.generator(0) < 1


def test_weyl_explicit_generators_bound_the_rank():
    w = seq.weyl_source(["0.6180339887498948482045868343656381177203"])
    with pytest.raises(RankUnsupported):
        w.block(0, 4, 2)


def test_weyl_default_generators_survive_large_powers():
    # double precision pi**40 has no fractional bits left; the extended
    # precision default must still produce a usable generator there.
    w = seq.weyl_source()
    alpha = w.generator(39)
    assert 0.0 < alpha < 1.0


# ---------------------------------------------------------------------------
# pseudorandom


def test_pseudorandom_is_deterministic_and_seed_sensitive():
    a = seq.pseudorandom_source(1)
    b = seq.pseudorandom_source(2)
    assert a.point_at(0, 2).coords == a.point_at(0, 2).coords
    assert a.point_at(0, 1).coords != b.point_at(0, 1).coords


def test_pseudorandom_chi_square_passes():
    src = seq.pseudorandom_source(2024)
    report = seq.equidistribution_statistic(src, 1, 10**4, 16, level=0.999)
    assert report.passed


# ---------------------------------------------------------------------------
# convergent


def test_convergent_geometric_decay():
    c = seq.convergent_source(0.0, 0.5)
    assert c.point_at(3, 1).coords == (0.125,)
    assert c.point_at(0, 1).coords == (1.0,)  # offset point, clamped
    assert c.point_at(60, 1).coords[0] == pytest.approx(0.0, abs=1e-15)


def test_convergent_rejects_bad_rate():
    with pytest.raises(ValueError):
        seq.convergent_source(0.0, 1.5)
    with pytest.raises(ValueError):
        seq.convergent_source(0.0, 0.0)


def test_convergent_per_coordinate_parameters():
    c = seq.convergent_source([0.1, 0.2], 0.5, [0.4, 0.0])
    p = c.point_at(1, 3)
    assert p.coords[0] == pytest.approx(0.1 + 0.2)
    assert p.coords[1] == pytest.approx(0.2)
    assert p.coords[2] == pytest.approx(0.2)  # sequences extend with the last entry


# ---------------------------------------------------------------------------
# quantiles / pullback


def test_normal_quantiles_median_and_known_value():
    q = seq.normal_quantiles()
    assert q.quantile(0, 0.5) == 0.0
    # independent oracle: Phi(1) via the error function
    u = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert q.quantile(0, 0.8413447) == pytest.approx(1.0, abs=1e-4)
    assert q.quantile(0, u) == pytest.approx(1.0, abs=1e-12)


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
            assert fam.quantile(k, 0.5) == pytest.approx(median, abs=1e-15)


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


def test_pullback_requires_cube_base():
    pb = seq.pullback_source(seq.halton_source(1), seq.normal_quantiles())
    with pytest.raises(ValueError):
        seq.pullback_source(pb, seq.normal_quantiles())


def test_nonpositive_widths_rejected():
    with pytest.raises(NonpositiveWidth):
        seq.normal_quantiles([1.0, 0.0])
    with pytest.raises(NonpositiveWidth):
        seq.box_quantiles(-1.0)


# ---------------------------------------------------------------------------
# equidistribution


def test_halton_rank2_four_bins_passes():
    report = seq.equidistribution_statistic(seq.halton_source(0), 2, 10**4, 4)
    assert report.passed
    assert report.statistic <= report.threshold


def test_weyl_rank1_threshold_matches_chi_square_table():
    report = seq.equidistribution_statistic(seq.weyl_source(), 1, 10**4, 16)
    assert report.threshold == pytest.approx(37.70, abs=0.01)
    assert report.statistic <= 37.70
    assert report.passed


@pytest.mark.parametrize("rank,bins", [(1, 16), (2, 8), (3, 4)])
@pytest.mark.parametrize("make", [seq.halton_source, lambda: seq.weyl_source()])
def test_low_discrepancy_sources_pass_ranks_1_to_3(make, rank, bins):
    report = seq.equidistribution_statistic(make(), rank, 10**4, bins)
    assert report.passed


@pytest.mark.parametrize("level", [0.9, 0.99, 0.999, 0.9999])
def test_constant_source_fails_at_every_level(level):
    report = seq.equidistribution_statistic(constant_source(), 1, 10**4, 16, level)
    assert not report.passed
    # all mass in one bin: statistic is N (bins - 1) in closed form
    assert report.statistic == pytest.approx(10**4 * 15, rel=1e-12)


def test_sample_count_boundary_is_accepted():
    report = seq.equidistribution_statistic(seq.halton_source(0), 1, 16 * 5, 16)
    assert report.sample_count == 80
    with pytest.raises(InsufficientSample):
        seq.equidistribution_statistic(seq.halton_source(0), 1, 16 * 5 - 1, 16)


def test_equidistribution_requires_cube_codomain():
    pb = seq.pullback_source(seq.halton_source(1), seq.normal_quantiles())
    with pytest.raises(ValueError):
        seq.equidistribution_statistic(pb, 1, 1000, 4)


def test_report_pass_iff_statistic_below_threshold():
    good = seq.equidistribution_statistic(seq.halton_source(0), 1, 10**4, 16)
    bad = seq.equidistribution_statistic(constant_source(), 1, 10**4, 16)
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


def brute_star_2d(pts):
    n = len(pts)
    best = 0.0
    us = np.concatenate([np.unique(pts[:, 0]), [1.0]])
    vs = np.concatenate([np.unique(pts[:, 1]), [1.0]])
    for u in us:
        for v in vs:
            closed = np.sum((pts[:, 0] <= u) & (pts[:, 1] <= v))
            opened = np.sum((pts[:, 0] < u) & (pts[:, 1] < v))
            best = max(best, closed / n - u * v, u * v - opened / n)
    return best


def test_star_discrepancy_single_point():
    assert seq.star_discrepancy(ArraySource([[0.5]]), 1, 1) == 0.5


def test_star_discrepancy_lattice_is_one_over_n():
    for n in (10, 64):
        pts = (np.arange(n) / n)[:, None]
        assert seq.star_discrepancy(ArraySource(pts), 1, n) == pytest.approx(1.0 / n, abs=1e-12)


def test_star_discrepancy_halton_100():
    d = seq.star_discrepancy(seq.halton_source(0), 1, 100)
    assert d == pytest.approx(0.023125, abs=1e-12)  # frozen from the sweep oracle
    assert d <= 0.035


def test_star_discrepancy_matches_brute_force_rank1():
    rng = np.random.default_rng(7)
    pts = rng.random((83, 1))
    got = seq.star_discrepancy(ArraySource(pts), 1, 83)
    assert got == pytest.approx(brute_star_1d(pts[:, 0]), abs=1e-14)


def test_star_discrepancy_matches_brute_force_rank2():
    rng = np.random.default_rng(11)
    pts = rng.random((60, 2))
    got = seq.star_discrepancy(ArraySource(pts), 2, 60)
    assert got == pytest.approx(brute_star_2d(pts), abs=1e-14)
    halton_pts = seq.halton_source(0).block(0, 64, 2)
    got_h = seq.star_discrepancy(seq.halton_source(0), 2, 64)
    assert got_h == pytest.approx(brute_star_2d(halton_pts), abs=1e-14)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_halton_discrepancy_below_log_bound(n):
    assert seq.star_discrepancy(seq.halton_source(0), 1, n) < 2.0 * math.log(n) / n


def test_star_discrepancy_rejects_rank_3_and_large_n():
    with pytest.raises(RankUnsupported):
        seq.star_discrepancy(seq.halton_source(0), 3, 100)
    with pytest.raises(ValueError):
        seq.star_discrepancy(seq.halton_source(0), 1, 5000)
