"""The public surface: the names ``import diracmean`` exposes."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from diracmean.cli import EXIT_OK, MODES, ExperimentConfig, main, parse_config_dict
from diracmean.errors import ValidationError

# The count of this list is the API size that the roadmap tracks.
PUBLIC_NAMES = [
    "ActionFunctional", "CertificationError", "ConvergenceReport", "CylinderViolation",
    "DEGENERATE", "DegenerateOracle", "DiracMeanError", "EmptyAccumulator",
    "EquidistributionReport", "MeanAccumulator", "NegativeDensity", "NoConvergence",
    "NonFiniteInput", "ParseError", "PointSource", "QuantileDomain", "QuantileFamily",
    "StoppingRule", "ValidationError", "WeightOverflow",
    "WeightPolicy", "action", "boltzmann_policy", "box_quantiles", "complex_gaussian_moment",
    "constant_policy", "convergent_source", "cylinder", "cylinder_function", "density_policy",
    "errors", "fresnel_limit_scan", "halton_source", "hierarchy_certify", "mean", "merge",
    "normal_quantiles", "normalized_expectation", "oracle", "oscillatory_mean",
    "oscillatory_policy", "product_regularized_policy", "pseudorandom_source", "pullback_source",
    "quadratic_action", "run", "run_blocked", "seq", "tensor_quadrature", "uniform_quantiles",
    "verify_cylinder", "weights", "weyl_source",
]


def test_import_exposes_exactly_the_public_names():
    # A fresh interpreter: importing a submodule such as diracmean.cli
    # elsewhere in the session would add its name to the package.
    code = "import diracmean; print(' '.join(n for n in dir(diracmean) if not n.startswith('_')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.split() == PUBLIC_NAMES
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES) and len(PUBLIC_NAMES) == 53


def test_benchmark_harness_binds_to_the_package():
    # The benchmark's child looks up `dm.<name>` on the package, and its
    # tracer hooks classes and functions of the submodules; a fresh
    # interpreter that writes no bytecode reads both files as they are.
    bench = Path(__file__).resolve().parents[1] / "bench"
    names = sorted(set(re.findall(r"\bdm\.(\w+)", (bench / "child.py").read_text())))
    tracing = str(bench / "tracing.py")
    assert names
    code = (
        "import importlib.util, diracmean\n"
        f"missing = [n for n in {names!r} if not hasattr(diracmean, n)]\n"
        "assert not missing, f'bench/child.py reads missing names {missing}'\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracing', {tracing!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracing.install(tracing.Tracer())\n"
    )
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.returncode == 0, out.stderr


# Every setting of an experiment is a key of its file; the command line
# names only the file and the output directory.
CONFIG_KEYS = [
    "mode", "budget", "source", "policy", "function", "density", "hierarchy", "stopping",
    "action", "regularizer", "route", "sigmas", "tolerance", "truncation",
]


def test_config_keys_are_the_experiment_config_fields():
    assert [f.name for f in fields(ExperimentConfig)] == CONFIG_KEYS and len(CONFIG_KEYS) == 14
    with pytest.raises(ValidationError) as exc:
        parse_config_dict({"mode": "oracle", "out": "results"})
    assert str(exc.value) == f"config: unknown keys ['out'] (allowed: {sorted(CONFIG_KEYS)})"


@pytest.mark.parametrize("mode", MODES)
def test_each_subcommand_takes_only_config_and_out(capsys, mode):
    with pytest.raises(SystemExit) as exc:
        main([mode, "--help"])
    assert exc.value.code == EXIT_OK
    usage = capsys.readouterr().out.splitlines()[0]
    assert re.findall(r" \[?(--?[a-z]+)", usage) == ["-h", "--config", "--out"]
