"""Job lists of the three benchmark workloads, with their reference values.

Everything here is plain data built from the seed with numpy and the
standard library; nothing imports ``diracmean``.  Reference values are
closed forms, so they are independent of the program under test, and
every tolerance is fixed by one of two rules before anything runs:

* ``tol_stopping``: a qmc-stream job on a low-discrepancy source, run
  with a stated window-Cauchy ``rel_tol``, must land within 10x that
  accuracy, ``10 rel_tol (1 + |mu|)``.
* ``tol_clt``: any other job must land within five standard errors of
  the self-normalized estimator at its point count, ``5 sigma / sqrt(N)``,
  with ``sigma^2 = E[|w|^2 |f - mu|^2] / |E[w]|^2`` taken from 2^16
  independent numpy draws of the job's sampling measure.  For a
  pseudorandom source this is the central limit bound; for a
  low-discrepancy source it is a conservative ceiling.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("qmc-stream", "fresnel-cli", "blocked-bulk")

# Boltzmann curvatures of the diagonal rank-8 action in blocked-bulk.
BOLTZMANN_DIAG = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
# Non-diagonal rank-2 action of the fresnel-cli compare jobs.
FRESNEL_MATRIX = [[1.0, 0.5], [0.5, 2.0]]
# Diagonal rank-3 action, widths and truncation of the rank-3 oracle job.
RANK3_DIAG = [1.0, 0.5, 2.0]
RANK3_WIDTH = 0.5
RANK3_TRUNCATION = 6.0
SCAN_CURVATURE = 1.0
SCAN_SIGMAS = [0.5, 1.0, 2.0]

_SIGMA_DRAWS = 1 << 16
_SIGMA_SEED = 0x5EED


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def tol_stopping(rel_tol: float, mu) -> float:
    return 10.0 * rel_tol * (1.0 + abs(complex(mu)))


def tol_clt(n: int, sample, weight, func, mu) -> float:
    """Five standard errors of the self-normalized mean at ``n`` points;
    ``sample(rng, m)`` draws m points of the sampling measure."""
    x = sample(np.random.default_rng(_SIGMA_SEED), _SIGMA_DRAWS)
    w = weight(x)
    dev = np.abs(func(x) - complex(mu)) ** 2
    sigma2 = float(np.mean(np.abs(w) ** 2 * dev)) / abs(complex(np.mean(w))) ** 2
    return 5.0 * math.sqrt(sigma2 / n)


def _uniform(rank):
    return lambda rng, m: rng.random((m, rank))


def _normal(widths):
    w = np.asarray(widths, dtype=float)
    return lambda rng, m: rng.standard_normal((m, len(w))) * w


def _box(half, rank):
    return lambda rng, m: (2.0 * rng.random((m, rank)) - 1.0) * half


def _ones(x):
    return np.ones(len(x))


def _product(rank):
    return lambda x: np.prod(x[:, :rank], axis=1)


def _coord(k):
    return lambda x: x[:, k]


def _quad_phase(matrix):
    a = np.asarray(matrix, dtype=float)
    return lambda x: np.exp(-0.5j * np.einsum("mi,ij,mj->m", x, a, x))


def gaussian_moments(widths, matrix) -> np.ndarray:
    """Second-moment matrix ``M^-1`` of the normalized complex Gaussian
    density ``exp(-x.M.x/2)``, ``M = diag(widths)^-2 + i A``."""
    w = np.asarray(widths, dtype=float)
    m = np.diag(1.0 / w**2) + 1j * np.asarray(matrix, dtype=float)
    return np.linalg.inv(m)


def boltzmann_mean(a: float) -> float:
    """Mean of x on [0, 1] under the weight exp(-a x^2 / 2), from erf."""
    z = math.sqrt(math.pi / (2.0 * a)) * math.erf(math.sqrt(a / 2.0))
    return (1.0 - math.exp(-a / 2.0)) / a / z


def _offset(rng) -> int:
    return int(rng.integers(1, 1 << 10))


def _prng_seed(rng) -> int:
    return int(rng.integers(1, 1 << 31))


# ---------------------------------------------------------------------------
# qmc-stream


def _qmc_stream(rng) -> list[dict]:
    jobs = []
    classical = [({"kind": "constant"}, {"kind": "product", "rank": r}, 0.5**r, r,
                  _ones, _product(r)) for r in (1, 2, 3, 4)]
    density = ({"kind": "density"}, {"kind": "coordinate", "index": 1}, 5.0 / 9.0, 1,
               lambda x: 1.0 + x[:, 0], _coord(0))

    def job(name, source, case, rel_tol, budget, min_samples, tol, stops):
        policy, func, mu = case[0], case[1], case[2]
        jobs.append({"id": name, "api": "run", "source": source, "policy": policy,
                     "function": func, "budget": budget,
                     "rule": {"rel_tol": rel_tol, "min_samples": min_samples},
                     "truth": _c(mu), "tol": tol, "stops": stops})

    # Halton at a fixed 2^19 points: its window-Cauchy stopping point swings
    # by 3x with the index offset, which would make solve_s measure the seed.
    n_halton = 1 << 19
    for case in classical + [density]:
        job(f"halton-r{case[3]}-{case[0]['kind']}", {"kind": "halton", "offset": _offset(rng)},
            case, 1e-6, n_halton, n_halton, tol_stopping(1e-6, case[2]),
            ["window-cauchy", "budget-exhausted"])
    # Weyl at 1e-4 stops freely by the window-Cauchy rule, within a few
    # 1e5 points whatever the offset.  At 1e-5 the free stop jumps between
    # geometric checkpoints 40% apart as the offset changes, so those jobs
    # run a fixed 2^21 points, about where they would stop.
    n_weyl = 1 << 21
    for case in classical[:3]:
        job(f"weyl-r{case[3]}-1e-4", {"kind": "weyl", "offset": _offset(rng)},
            case, 1e-4, 1 << 23, 1000, tol_stopping(1e-4, case[2]), ["window-cauchy"])
    for case in classical[:3] + [density]:
        job(f"weyl-r{case[3]}-{case[0]['kind']}-1e-5", {"kind": "weyl", "offset": _offset(rng)},
            case, 1e-5, n_weyl, n_weyl, tol_stopping(1e-5, case[2]),
            ["window-cauchy", "budget-exhausted"])
    n_prng = 1 << 20
    for case in classical[:3] + [density]:
        job(f"pseudorandom-r{case[3]}-{case[0]['kind']}",
            {"kind": "pseudorandom", "seed": _prng_seed(rng)}, case, 1e-4, n_prng, n_prng,
            tol_clt(n_prng, _uniform(case[3]), case[4], case[5], case[2]),
            ["window-cauchy", "budget-exhausted"])
    return jobs


# ---------------------------------------------------------------------------
# fresnel-cli


def _fresnel_cli(rng) -> list[dict]:
    jobs = []
    n = 1 << 20
    fixed = {"min_samples": n}
    widths2 = [1.0, 1.0]
    mu2 = gaussian_moments(widths2, FRESNEL_MATRIX)[0, 1]
    phase2 = _quad_phase(FRESNEL_MATRIX)
    x1x2 = _product(2)
    sampling = {
        "pullback": (_normal(widths2), phase2),
        "weight-borne": (_box(8.0, 2), lambda x: np.exp(-0.5 * np.sum(x**2, axis=1)) * phase2(x)),
    }
    for route, (sample, weight) in sampling.items():
        tol = tol_clt(n, sample, weight, x1x2, mu2)
        jobs.append({
            "id": f"compare-{route}", "api": "cli", "mode": "compare", "exit": [0],
            "config": {"mode": "compare", "source": {"kind": "weyl", "offset": _offset(rng)},
                       "route": route, "action": {"matrix": FRESNEL_MATRIX},
                       "regularizer": {"widths": widths2},
                       "function": {"name": "coordinate-product", "rank": 2},
                       "budget": n, "stopping": fixed, "tolerance": tol},
            "truth": _c(mu2), "tol": tol, "oracle_tol": 1e-8,
        })

    # Rank 3 on a diagonal action: the oracle's rank-3 code path and a
    # rank-3 pullback estimate, each checked against the closed form.
    diag3 = np.diag(RANK3_DIAG).tolist()
    widths3 = [RANK3_WIDTH] * 3
    mu3 = gaussian_moments(widths3, diag3)[2, 2]
    x3sq = {"name": "polynomial", "coeffs": [0.0, 0.0, 1.0], "index": 3}
    # Truncating each axis at T widths drops at most 2(T phi(T) + Q(T))
    # of the Gaussian mass of x^2; relative to |Z| that is amplified by
    # |det(I + i W A W)|^(1/2).  Ten times that bound is the tolerance.
    t = RANK3_TRUNCATION
    tail = 2.0 * (t * math.exp(-t * t / 2) / math.sqrt(2 * math.pi) + 0.5 * math.erfc(t / math.sqrt(2)))
    amp = math.sqrt(abs(np.prod([1 + 1j * a * RANK3_WIDTH**2 for a in RANK3_DIAG])))
    jobs.append({
        "id": "oracle-rank3", "api": "cli", "mode": "oracle", "exit": [0],
        "config": {"mode": "oracle", "action": {"matrix": diag3},
                   "regularizer": {"widths": widths3}, "function": x3sq,
                   "truncation": RANK3_TRUNCATION},
        "truth": _c(mu3), "tol": 10.0 * tail * amp * RANK3_WIDTH**2,
    })
    n3 = 1 << 19
    jobs.append({
        "id": "estimate-rank3", "api": "cli", "mode": "estimate", "exit": [0, 3],
        "config": {"mode": "estimate", "source": {"kind": "weyl", "offset": _offset(rng)},
                   "route": "pullback", "action": {"matrix": diag3},
                   "regularizer": {"widths": widths3}, "function": x3sq,
                   "budget": n3, "stopping": {"min_samples": n3}},
        "truth": _c(mu3),
        "tol": tol_clt(n3, _normal(widths3), _quad_phase(diag3), lambda x: x[:, 2] ** 2, mu3),
    })

    n_scan = 1 << 19
    truths, tols = [], []
    for s in SCAN_SIGMAS:
        mu = s * s / (1.0 + 1j * SCAN_CURVATURE * s * s)
        truths.append(_c(mu))
        tols.append(tol_clt(n_scan, _normal([s]), _quad_phase([[SCAN_CURVATURE]]),
                            lambda x: x[:, 0] ** 2, mu))
    jobs.append({
        "id": "fresnel-scan", "api": "cli", "mode": "fresnel-scan", "exit": [0],
        "config": {"mode": "fresnel-scan", "source": {"kind": "weyl", "offset": _offset(rng)},
                   "action": {"matrix": [[SCAN_CURVATURE]]}, "sigmas": SCAN_SIGMAS,
                   "budget": n_scan, "stopping": {"min_samples": n_scan}},
        "truth": truths, "tol": tols,
    })
    jobs.append({
        "id": "certify", "api": "cli", "mode": "certify", "exit": [0],
        "config": {"mode": "certify", "source": {"kind": "weyl", "offset": _offset(rng)},
                   "hierarchy": [1, 2, 3], "budget": 1 << 18},
    })
    jobs.append({
        "id": "degenerate", "api": "cli", "mode": "estimate", "exit": [2],
        "config": {"mode": "estimate", "source": {"kind": "weyl", "offset": _offset(rng)},
                   "policy": {"kind": "oscillatory", "action": {"matrix": [[0.0]]},
                              "index_phase": math.pi},
                   "function": {"name": "coordinate", "index": 1}, "budget": 1 << 16},
    })
    return jobs


# ---------------------------------------------------------------------------
# blocked-bulk


def _blocked_bulk(rng) -> list[dict]:
    jobs = []
    n = 8 * (1 << 16) * 4
    a = np.asarray(BOLTZMANN_DIAG)
    boltz = {"kind": "boltzmann", "diag": BOLTZMANN_DIAG}

    def boltz_weight(x):
        return np.exp(-0.5 * np.sum(a * x**2, axis=1))

    def job(name, source, policy, func, total, mu, rank, weight, f):
        jobs.append({"id": name, "api": "run_blocked", "source": source, "policy": policy,
                     "function": func, "total": total, "blocks": 8, "truth": _c(mu),
                     "tol": tol_clt(total, _uniform(rank), weight, f, mu)})

    job("weyl-r4-constant", {"kind": "weyl", "offset": _offset(rng)}, {"kind": "constant"},
        {"kind": "product", "rank": 4}, n, 1 / 16, 4, _ones, _product(4))
    job("weyl-r8-boltzmann", {"kind": "weyl", "offset": _offset(rng)}, boltz,
        {"kind": "sum", "rank": 8}, n, sum(boltzmann_mean(v) for v in a), 8, boltz_weight,
        lambda x: x.sum(axis=1))
    job("pseudorandom-r2-constant", {"kind": "pseudorandom", "seed": _prng_seed(rng)},
        {"kind": "constant"}, {"kind": "product", "rank": 2}, n, 0.25, 2, _ones, _product(2))
    job("pseudorandom-r8-boltzmann", {"kind": "pseudorandom", "seed": _prng_seed(rng)}, boltz,
        {"kind": "coordinate", "index": 1}, n, boltzmann_mean(a[0]), 8, boltz_weight, _coord(0))
    # Halton far out in the index range, where the radical inverse has 33+
    # binary digits per coordinate.
    job("halton-r2-offset-2^32", {"kind": "halton", "offset": (1 << 32) + _offset(rng)},
        {"kind": "constant"}, {"kind": "product", "rank": 2}, 8 * (1 << 16), 0.25, 2, _ones,
        _product(2))
    repeat = dict(jobs[3], id="repeat-pseudorandom-r8-boltzmann", repeat_of=jobs[3]["id"])
    jobs.append(repeat)
    return jobs


_JOB_LISTS = {"qmc-stream": _qmc_stream, "fresnel-cli": _fresnel_cli, "blocked-bulk": _blocked_bulk}


def build_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's jobs for this seed, references and tolerances filled."""
    return _JOB_LISTS[workload](np.random.default_rng(seed & ((1 << 64) - 1)))
