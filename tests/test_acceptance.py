"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from diracmean import (
    StoppingRule,
    boltzmann_policy,
    constant_policy,
    convergent_source,
    cylinder_function,
    density_policy,
    fresnel_limit_scan,
    halton_source,
    hierarchy_certify,
    normal_quantiles,
    oscillatory_mean,
    oscillatory_policy,
    product_regularized_policy,
    pseudorandom_source,
    quadratic_action,
    run,
    run_blocked,
    weyl_source,
)
from diracmean.cli import EXIT_DEGENERATE, main
from diracmean.oracle import complex_gaussian_moment, normalized_expectation

F_X1 = cylinder_function(1, lambda x: x[:, 0], "x1")
F_X1SQ = cylinder_function(1, lambda x: x[:, 0] ** 2, "x1^2")
F_X1X2 = cylinder_function(2, lambda x: x[:, 0] * x[:, 1], "x1 x2")


def full(n):
    return StoppingRule(min_samples=n)


def announce(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def test_criterion_01_classical_recovery():
    t0 = time.perf_counter()
    report = run(halton_source(0), constant_policy(), F_X1X2, 10**5, full(10**5))
    elapsed = time.perf_counter() - t0
    err = abs(report.final_estimate - 0.25)
    ok = announce(1, err <= 5e-4 and elapsed < 1.0,
                  f"x1*x2 over Halton, N=1e5: err={err:.2e} (tol 5e-4), "
                  f"runtime={elapsed:.2f}s (< 1s)")
    assert ok


def test_criterion_02_density_mean():
    t0 = time.perf_counter()
    policy = density_policy(lambda x: 1.0 + x[:, 0], 1)
    report = run(halton_source(0), policy, F_X1, 10**5, full(10**5))
    elapsed = time.perf_counter() - t0
    target = 5.0 / 9.0  # (integral of x(1+x)) / (integral of 1+x) on [0,1]
    err = abs(report.final_estimate - target)
    ok = announce(2, err <= 1e-3 and elapsed < 1.0,
                  f"density 1+x, f=x, N=1e5: err={err:.2e} (tol 1e-3), "
                  f"runtime={elapsed:.2f}s (< 1s)")
    assert ok


def test_criterion_03_linear_extension_of_the_limit():
    source = convergent_source(0.0, 0.5)  # x_n = 2^-n
    func = cylinder_function(1, lambda x: np.cos(x[:, 0]), "cos x1")
    report = run(source, constant_policy(), func, 10**5, full(10**5))
    err = abs(report.final_estimate - 1.0)
    ok = announce(3, err <= 1e-3,
                  f"Cesaro mean of cos(2^-n), N=1e5: err={err:.2e} (tol 1e-3)")
    assert ok


@pytest.fixture(scope="module")
def fresnel_pullback():
    return oscillatory_mean(
        halton_source(1), quadratic_action([[1.0]]), normal_quantiles([1.0]),
        F_X1SQ, 10**6, full(10**6),
    )


def test_criterion_04_oscillatory_fresnel_value(fresnel_pullback):
    t0 = time.perf_counter()
    report = oscillatory_mean(
        halton_source(1), quadratic_action([[1.0]]), normal_quantiles([1.0]),
        F_X1SQ, 10**6, full(10**6),
    )
    elapsed = time.perf_counter() - t0
    target = 0.5 - 0.5j
    err = abs(report.final_estimate - target)
    oracle = normalized_expectation(
        lambda x: x[:, 0] ** 2,
        lambda x: np.exp(-x[:, 0] ** 2 * (1.0 + 1.0j) / 2.0),
        ((-8.0, 8.0),),
    )[0]
    oracle_err = abs(oracle - complex_gaussian_moment(1.0, 1.0, 2))
    ok = announce(4, err <= 5e-3 and oracle_err <= 1e-8 and elapsed < 30.0,
                  f"Fresnel <x^2> via pullback, N=1e6: err={err:.2e} (tol 5e-3), "
                  f"oracle-vs-closed-form={oracle_err:.1e} (tol 1e-8), "
                  f"runtime={elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_05_route_equivalence(fresnel_pullback):
    weight_borne = oscillatory_mean(
        halton_source(1), quadratic_action([[1.0]]), normal_quantiles([1.0]),
        F_X1SQ, 10**6, full(10**6), route="weight-borne",
    )
    target = 0.5 - 0.5j
    gap = abs(weight_borne.final_estimate - fresnel_pullback.final_estimate)
    err_wb = abs(weight_borne.final_estimate - target)
    ok = announce(5, gap <= 1e-2 and err_wb <= 1e-2,
                  f"route gap={gap:.2e}, weight-borne err={err_wb:.2e} (tol 1e-2)")
    assert ok


def test_criterion_06_width_scan_trend():
    scan = fresnel_limit_scan(
        halton_source(1), quadratic_action([[1.0]]), [1.0, 2.0, 4.0],
        budget=10**6, rule=full(10**6), skip_certification=True,
    )
    errs, dists = [], []
    for sigma, report in scan:
        target = sigma**2 / (1.0 + 1j * sigma**2)
        errs.append(abs(report.final_estimate - target))
        dists.append(abs(report.final_estimate - (-1j)))
    monotone = all(b <= a for a, b in zip(dists, dists[1:]))
    ok = announce(6, max(errs) <= 2e-2 and monotone,
                  f"widths (1,2,4): errs={[f'{e:.1e}' for e in errs]} (tol 2e-2), "
                  f"distance to -i nonincreasing: {monotone} "
                  f"({[f'{d:.3f}' for d in dists]})")
    assert ok


def test_criterion_07_degeneracy_guard(tmp_path):
    config = {
        "mode": "estimate",
        "source": {"kind": "halton", "offset": 0},
        "policy": {"kind": "oscillatory", "action": {"matrix": [[0.0]]},
                   "index_phase": math.pi},
        "function": {"name": "coordinate", "index": 1},
        "budget": 10000,
    }
    path = tmp_path / "alternating.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["estimate", "--config", str(path), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    cells_finite = True
    for row in list(csv.reader((out / "trace.csv").read_text().splitlines()))[1:]:
        for cell in row:
            if cell and not math.isfinite(float(cell)):
                cells_finite = False
    ok = announce(7, code == EXIT_DEGENERATE
                  and summary["result"]["final_estimate"] == "degenerate"
                  and cells_finite,
                  f"alternating phases: exit={code} (want 2), trace finite={cells_finite}")
    assert ok


def test_criterion_08_gauge_invariance():
    class Scaled:
        def __init__(self, inner, c):
            self.inner, self.c, self.rank = inner, c, inner.rank

        def weights(self, pts, start_index=0):
            return self.c * self.inner.weights(pts, start_index)

    scale = 2.0 * np.exp(1j * np.pi / 3.0)
    policy = density_policy(lambda x: 1.0 + x[:, 0], 1)
    rule = StoppingRule(window=16, min_samples=10**4)  # a trace row every 625 points
    plain = run(halton_source(0), policy, F_X1, 10**4, rule)
    scaled = run(halton_source(0), Scaled(policy, scale), F_X1, 10**4, rule)
    plain_est, scaled_est = plain.trace["estimate"], scaled.trace["estimate"]
    worst = max(abs(a - b) / abs(a) for a, b in zip(plain_est, scaled_est))
    ok = announce(8, worst <= 1e-12 and len(plain_est) >= 10,
                  f"weights x 2e^(i pi/3): worst relative trace change={worst:.2e} "
                  f"(tol 1e-12) over {len(plain_est)} snapshots")
    assert ok


def test_criterion_09_normalization_and_linearity():
    sources = {
        "halton": halton_source(0),
        "weyl": weyl_source(index_offset=1),
        "pseudorandom": pseudorandom_source(77),
        "convergent": convergent_source(0.25, 0.5),
    }
    policies = {
        "constant": constant_policy(),
        "density": density_policy(lambda x: 1.0 + x[:, 0], 1),
        "boltzmann": boltzmann_policy(quadratic_action([[1.0]])),
        "oscillatory": oscillatory_policy(quadratic_action([[1.0]])),
        "product-regularized": product_regularized_policy(
            normal_quantiles([1.0]), quadratic_action([[1.0]])),
    }
    exact = True
    for sname, source in sources.items():
        for pname, policy in policies.items():
            for c in (1.0, 2.0, -0.5):
                const = cylinder_function(0, c, f"const {c}")
                report = run(source, policy, const, 2000)
                if report.final_estimate != complex(c):
                    exact = False

    g = cylinder_function(2, lambda x: np.cos(x[:, 0]) + x[:, 1], "g")
    combo = cylinder_function(
        2, lambda x: 2.0 * (x[:, 0] * x[:, 1]) + 3.0 * (np.cos(x[:, 0]) + x[:, 1]),
        "2f+3g")
    policy = density_policy(lambda x: 1.0 + x[:, 0], 1)
    rule = full(10**4)
    ef = run(halton_source(0), policy, F_X1X2, 10**4, rule).final_estimate
    eg = run(halton_source(0), policy, g, 10**4, rule).final_estimate
    ec = run(halton_source(0), policy, combo, 10**4, rule).final_estimate
    lin_err = abs(ec - (2.0 * ef + 3.0 * eg)) / abs(ec)
    ok = announce(9, exact and lin_err <= 1e-12,
                  f"f=c exact over 4 sources x 5 policies x 3 constants: {exact}; "
                  f"linearity at m=1e4: rel err={lin_err:.2e} (tol 1e-12)")
    assert ok


def test_criterion_10_hierarchy_certification():
    halton_ok = all(r.passed for r in
                    hierarchy_certify(halton_source(0), (1, 2, 3), 10**4))
    constant = convergent_source(0.3, 0.5, 0.0)
    constant_fails = not any(r.passed for r in
                             hierarchy_certify(constant, (1, 2, 3), 10**4))
    weyl_ok = all(r.passed for r in
                  hierarchy_certify(weyl_source(), (1, 2), 10**4))
    ok = announce(10, halton_ok and constant_fails and weyl_ok,
                  f"halton ranks 1-3 pass: {halton_ok}; constant fails all: "
                  f"{constant_fails}; weyl ranks 1-2 pass: {weyl_ok}")
    assert ok


def test_criterion_11_reproducibility(tmp_path):
    config = {
        "mode": "estimate",
        "source": {"kind": "halton", "offset": 0},
        "policy": {"kind": "density",
                   "function": {"name": "polynomial", "coeffs": [1.0, 1.0]}},
        "function": {"name": "coordinate", "index": 1},
        "budget": 100000,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["estimate", "--config", str(path), "--out", str(out)])
        outs.append((out / "trace.csv").read_bytes())
    bit_identical = outs[0] == outs[1]

    policy = density_policy(lambda x: 1.0 + x[:, 0], 1)
    sequential = run(halton_source(0), policy, F_X1, 10**5,
                     full(10**5)).final_estimate
    blocked = run_blocked(halton_source(0), policy, F_X1, 10**5, 8).estimate()
    rel = abs(blocked - sequential) / abs(sequential)
    ok = announce(11, bit_identical and rel <= 1e-12,
                  f"two CLI runs bit-identical: {bit_identical}; sequential vs "
                  f"8-block rel diff={rel:.2e} (tol 1e-12)")
    assert ok
