"""The public surface: the names ``import diracmean`` exposes."""

import os
import re
import subprocess
import sys
from dataclasses import fields

import pytest

from diracmean.cli import EXIT_OK, MODES, ExperimentConfig, main, parse_config_dict
from diracmean.errors import ValidationError

# The count of this list is the API size that the roadmap tracks.
PUBLIC_NAMES = [
    "ActionFunctional", "CertificationError", "ConvergenceReport", "CustomAction",
    "CylinderFunction", "CylinderViolation", "DEGENERATE", "Degenerate", "DegenerateOracle",
    "DiracMeanError", "EmptyAccumulator", "EquidistributionReport", "InsufficientSample",
    "MeanAccumulator", "NegativeDensity", "NoConvergence", "NonFiniteInput", "ParseError",
    "PointSource", "QuadraticAction", "QuadratureSpec", "QuantileDomain", "QuantileFamily",
    "StoppingRule", "ValidationError", "WeightOverflow", "WeightPolicy", "action",
    "boltzmann_policy", "box_quantiles", "complex_gaussian_moment", "constant_policy",
    "convergent_source", "cylinder", "cylinder_function", "density_policy",
    "equidistribution_statistic", "errors", "fresnel_limit_scan", "halton_source",
    "hierarchy_certify", "mean", "merge", "normal_quantiles", "normalized_expectation",
    "oracle", "oscillatory_mean", "oscillatory_policy", "product_regularized_policy",
    "pseudorandom_source", "pullback_source", "quadratic_action", "run", "run_blocked",
    "seq", "tensor_quadrature", "uniform_quantiles", "verify_cylinder", "weights",
    "weyl_source",
]


def test_import_exposes_exactly_the_public_names():
    # A fresh interpreter: importing a submodule such as diracmean.cli
    # elsewhere in the session would add its name to the package.
    code = "import diracmean; print(' '.join(n for n in dir(diracmean) if not n.startswith('_')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.split() == PUBLIC_NAMES
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES) and len(PUBLIC_NAMES) == 60


# Every setting of an experiment is a key of its file; the command line
# names only the file and the output directory.
CONFIG_KEYS = [
    "mode", "budget", "source", "policy", "function", "density", "hierarchy", "bins_per_axis",
    "stopping", "trace_stride", "significance", "block_size", "action", "regularizer", "route",
    "box_half_width", "sigmas", "tolerance", "truncation", "cells_per_axis",
]


def test_config_keys_are_the_experiment_config_fields():
    assert [f.name for f in fields(ExperimentConfig)] == CONFIG_KEYS and len(CONFIG_KEYS) == 20
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
