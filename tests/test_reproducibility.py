"""Pinned bits of seven `run`s, two `run_blocked`s and six CLI quadrature
oracles.

For each run: the estimate, N_used, stop reason and trace rows.  For
each blocked run: ``float.hex`` of the accumulator's numerator,
denominator and absolute weight sum, and its count.  For each oracle: ``float.hex`` of the value in ``summary.json`` and the cells
per axis it used.  A change that moves any of these bits on purpose
updates the pins and says so in CHANGES.md; any other change must leave
them as they are.  The rank-8 row sum was pinned when ``run`` began to
evaluate several blocks per call, which moved its trace rows; the other
six runs predate that.  All seven trace-row hashes were re-pinned when
the trace became one row per reached checkpoint with a ``spread`` and a
``tolerance`` column; their estimate bits, N_used and stop reasons did
not move.  The oracle pins predate quantile families owning their
density and domain.
``PYTHONPATH=src python tests/test_reproducibility.py`` prints the
current values in the layout of ``PINNED``, ``PINNED_BLOCKED`` and
``PINNED_ORACLES``.

The bits are fixed per numpy version and per SIMD dispatch level, which
numpy picks from the CPU at import; the pins were taken under AVX512
dispatch with numpy 2.4.  The last test reruns them under the x86-64-v2
baseline and checks which of them depend on the dispatch.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from diracmean import (
    StoppingRule,
    constant_policy,
    cylinder_function,
    density_policy,
    halton_source,
    oscillatory_policy,
    pseudorandom_source,
    quadratic_action,
    run,
    run_blocked,
)
from diracmean.cli import execute, parse_config_dict

F_X1 = cylinder_function(1, lambda x: x[:, 0], "x1")
DENSITY_POL = density_policy(lambda x: 1.0 + x[:, 0], 1)

RUNS = {
    # A free window-Cauchy stop inside a 1024-point block.
    "window-cauchy-inside-block": lambda: run(
        halton_source(1), DENSITY_POL, F_X1, 2 * 10**5,
        StoppingRule(min_samples=56, rel_tol=1e-4), block_size=1024),
    # Weights alternate in sign, so every even m is degenerate.
    "alternating-degenerate": lambda: run(
        halton_source(0), oscillatory_policy(quadratic_action([[0.0]]), index_phase=math.pi),
        F_X1, 10**4, StoppingRule()),
    "oscillatory-complex": lambda: run(
        pseudorandom_source(3),
        oscillatory_policy(quadratic_action([[2.0, 0.5], [0.5, 1.0]])),
        cylinder_function(2, lambda x: np.exp(1j * x[:, 0]) * x[:, 1], "e^{i x1} x2"),
        60000, StoppingRule(rel_tol=1e-3)),
    "block-size-1": lambda: run(
        halton_source(2), DENSITY_POL, F_X1, 3000,
        StoppingRule(min_samples=200, rel_tol=1e-3), block_size=1),
    # 5000 does not divide the 16384-point batch.
    "block-size-5000": lambda: run(
        halton_source(3), DENSITY_POL,
        cylinder_function(2, lambda x: x[:, 0] * x[:, 1], "x1 x2"), 10**5,
        StoppingRule(rel_tol=3e-5, min_samples=42000), block_size=5000),
    # A block larger than a batch is its own batch.
    "block-size-70000": lambda: run(
        halton_source(0), constant_policy(), F_X1, 2 * 10**5,
        StoppingRule(min_samples=1000, rel_tol=1e-5), block_size=70000),
    # numpy sums 8 columns of a one-row block pairwise but of a many-row
    # column-major block in coordinate order: the bits depend on the rows
    # evaluated together, even at block_size=1.
    "rank-8-row-sum-block-size-1": lambda: run(
        pseudorandom_source(5), constant_policy(),
        cylinder_function(8, lambda x: x.sum(axis=1), "x1 + ... + x8"), 3000,
        StoppingRule(min_samples=3000), block_size=1),
}

PINNED = {
    'alternating-degenerate': (
        'degenerate', 10000, 'degenerate',
        'c7f7a528a95f1c5fabf5b0098edb36dd10abeaeb75c866ca9cd8e992e782f186'),
    'block-size-1': (
        ('0x1.1baaa1f0d54f5p-1', '0x0.0p+0'), 815, 'window-cauchy',
        'ad9cdf03fefcef212413d73f8b711cb6ac68835ebda57050d3d90666c4e66888'),
    'block-size-5000': (
        ('0x1.1c6a29ed96aaap-2', '0x0.0p+0'), 59399, 'window-cauchy',
        '0c46dfb37f18b99b6dc22b944d2d009e716e0f9ef9a5a52bd35e81819e6ca99b'),
    'block-size-70000': (
        ('0x1.fff9874222aa6p-2', '0x0.0p+0'), 117995, 'window-cauchy',
        'd4da088cca164df61427d4354e4e9653e3e675c9c4c2dbb597de0e36726ef555'),
    'oscillatory-complex': (
        ('0x1.fdf20b1664a55p-2', '0x1.88662c6071b58p-3'), 41714, 'window-cauchy',
        '049abbab48c4a446741b2c79bbc59bcdeeb40bc52276cbd2508705c30030a777'),
    'rank-8-row-sum-block-size-1': (
        ('0x1.01386d5e4e056p+2', '0x0.0p+0'), 3000, 'budget-exhausted',
        'bd7612037a087be77f7a17c9c1b911380b2e908431085113fe7037f186db9322'),
    'window-cauchy-inside-block': (
        ('0x1.1c4a6cad3a051p-1', '0x0.0p+0'), 6566, 'window-cauchy',
        '1294ebc2ab9bcc2e9bd75ac15b9af107c670094e759cce5c7f2eaf80ee76033f'),
}

# No block edge is a multiple of the 65536-point chunk, so every block
# ends in a short chunk.
BLOCKED = {
    # Edges 0, 70000, 140001.
    "density-real-two-blocks": lambda: run_blocked(
        halton_source(1), DENSITY_POL,
        cylinder_function(2, lambda x: x[:, 0] * x[:, 1], "x1 x2"), 140001, 2),
    # Edges 0, 66667, 133334, 200001: the odd block waits one merge round.
    "oscillatory-complex-three-blocks": lambda: run_blocked(
        pseudorandom_source(3),
        oscillatory_policy(quadratic_action([[2.0, 0.5], [0.5, 1.0]])),
        cylinder_function(2, lambda x: np.exp(1j * x[:, 0]) * x[:, 1], "e^{i x1} x2"),
        200001, 3),
}

PINNED_BLOCKED = {
    'density-real-two-blocks': (
        '0x1.c7b283114bad6p+15', '0x0.0p+0', '0x1.9a27bd6040000p+17', '0x0.0p+0',
        '0x1.9a27bd6040000p+17', 140001),
    'oscillatory-complex-three-blocks': (
        '0x1.70ef3e3f200d4p+16', '-0x1.792ded6be3f43p+14', '0x1.21ea7e66af42ep+17',
        '-0x1.9c5fe0dd30a54p+16', '0x1.86a0800000000p+17', 200001),
}


HALTON_1 = {"kind": "halton", "offset": 1}
F_X2SQ = {"name": "polynomial", "coeffs": [0.0, 0.0, 1.0], "index": 2}
ROUTE = {"mode": "compare", "source": HALTON_1,
         "action": {"matrix": [[1.0, 0.5], [0.5, 2.0]]},
         "regularizer": {"family": "gaussian", "widths": [1.0, 0.7]},
         "function": F_X2SQ, "budget": 2000, "tolerance": 0.5}

ORACLES = {
    "compare-density-halton": {
        "mode": "compare", "source": {"kind": "halton"},
        "policy": {"kind": "density", "function": {"name": "polynomial", "coeffs": [1.0, 1.0]}},
        "function": {"name": "coordinate", "index": 1}, "budget": 2000, "tolerance": 0.5},
    "compare-normal-pullback": {
        "mode": "compare",
        "source": {"kind": "pullback", "base": HALTON_1,
                   "quantiles": {"family": "normal", "widths": [1.0, 0.5]}},
        "policy": {"kind": "constant"}, "function": F_X2SQ, "budget": 2000, "tolerance": 0.5},
    "compare-box-pullback-unequal-widths": {
        "mode": "compare",
        "source": {"kind": "pullback", "base": HALTON_1,
                   "quantiles": {"family": "uniform-box", "widths": [1.0, 2.0]}},
        "policy": {"kind": "constant"}, "function": F_X2SQ, "budget": 2000, "tolerance": 0.5},
    "compare-route-pullback": dict(ROUTE, route="pullback"),
    "compare-route-weight-borne": dict(ROUTE, route="weight-borne"),
    "oracle-rank3": {
        "mode": "oracle",
        "action": {"matrix": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 2.0]]},
        "regularizer": {"family": "gaussian", "widths": [0.5, 0.5, 0.5]},
        "function": {"name": "polynomial", "coeffs": [0.0, 0.0, 1.0], "index": 3},
        "truncation": 6.0},
}

PINNED_ORACLES = {
    'compare-box-pullback-unequal-widths': (('0x1.5555555555559p+0', '0x0.0p+0'), 8),
    'compare-density-halton': (('0x1.1c71c71c71c72p-1', '0x0.0p+0'), 8),
    'compare-normal-pullback': (('0x1.0000000000000p-2', '0x0.0p+0'), 64),
    'compare-route-pullback': (('0x1.0e40a1e9e96a6p-2', '-0x1.d3eda57640049p-3'), 64),
    'compare-route-weight-borne': (('0x1.0e40a1e9e96a6p-2', '-0x1.d3eda57640049p-3'), 64),
    'oracle-rank3': (('0x1.99999bdeec55ep-3', '-0x1.999998b66fb31p-4'), 16),
}


def _oracle_fingerprint(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        execute(parse_config_dict(json.loads(json.dumps(cfg))), tmp)
        r = json.loads((Path(tmp) / "summary.json").read_text())["result"]
    if "oracle" in r:
        return (r["oracle"]["re"].hex(), r["oracle"]["im"].hex()), r["oracle_cells_used"]
    return (r["value_re"].hex(), r["value_im"].hex()), r["cells_used"]


def _fingerprint(report):
    est = report.final_estimate
    bits = "degenerate" if report.degenerate else (est.real.hex(), est.imag.hex())
    rows = hashlib.sha256(repr(report.trace_rows()).encode()).hexdigest()
    return bits, report.N_used, report.stop_reason, rows


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_bits_are_pinned(name):
    assert _fingerprint(RUNS[name]()) == PINNED[name]


def _blocked_fingerprint(acc):
    num, den = acc.numerator, acc.denominator
    return (num.real.hex(), num.imag.hex(), den.real.hex(), den.imag.hex(),
            acc.abs_weight_sum.hex(), acc.count)


@pytest.mark.parametrize("name", sorted(BLOCKED))
def test_run_blocked_bits_are_pinned(name):
    assert _blocked_fingerprint(BLOCKED[name]()) == PINNED_BLOCKED[name]


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_bits_are_pinned(name):
    assert _oracle_fingerprint(ORACLES[name]) == PINNED_ORACLES[name]


def _moved() -> list[str]:
    """The names of the pins whose bits differ from their pinned values."""
    return sorted([name for name in RUNS if _fingerprint(RUNS[name]()) != PINNED[name]]
                  + [name for name in BLOCKED
                     if _blocked_fingerprint(BLOCKED[name]()) != PINNED_BLOCKED[name]]
                  + [name for name in ORACLES
                     if _oracle_fingerprint(ORACLES[name]) != PINNED_ORACLES[name]])


def test_only_the_complex_products_depend_on_the_simd_dispatch():
    from numpy._core import _multiarray_umath as umath

    if "X86_V2" not in umath.__cpu_baseline__:
        pytest.skip(f"the dispatch dependence is recorded for an x86-64-v2 baseline; this "
                    f"numpy's baseline is {umath.__cpu_baseline__}")
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("this CPU has no numpy dispatch target above the x86-64-v2 baseline")
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import test_reproducibility as t; print(json.dumps(t._moved()))")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                         capture_output=True, text=True, env=env, timeout=600)
    assert out.returncode == 0, out.stderr
    # Complex-weight, complex-value products: presumably FMA from AVX2 on.
    assert json.loads(out.stdout.splitlines()[-1]) == [
        "oscillatory-complex", "oscillatory-complex-three-blocks"]


if __name__ == "__main__":
    for name in sorted(RUNS):
        print(f"    {name!r}: {_fingerprint(RUNS[name]())!r},")
    for name in sorted(BLOCKED):
        print(f"    {name!r}: {_blocked_fingerprint(BLOCKED[name]())!r},")
    for name in sorted(ORACLES):
        print(f"    {name!r}: {_oracle_fingerprint(ORACLES[name])!r},")
