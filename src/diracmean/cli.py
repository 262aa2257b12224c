"""Experiment driver: parse a JSON experiment description, wire the
source/policy/function, run, and emit a CSV trace plus a JSON summary.

Exit codes partition the outcomes: 0 success, 1 config or runtime
error, 2 degenerate normalization, 3 non-convergence within budget,
4 certification or comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import mean as mean_mod
from .action import gaussian_regularizer, oscillatory_mean, quadratic_action
from .cylinder import CylinderFunction, hierarchy_certify
from .errors import DiracMeanError, ParseError, ValidationError
from .oracle import QuadratureSpec, normalized_expectation_with_info
from .registry import build_function
from .seq import (
    PointSource,
    convergent_source,
    halton_source,
    pseudorandom_source,
    pullback_source,
    quantile_family_from_dict,
    weyl_source,
)
from .weights import (
    boltzmann_policy,
    constant_policy,
    density_policy,
    oscillatory_policy,
    product_regularized_policy,
)

__all__ = ["ExperimentConfig", "parse_config", "execute", "main"]

MODES = ("estimate", "certify", "oracle", "fresnel-scan", "compare")
SOURCE_KINDS = ("halton", "weyl", "pseudorandom", "convergent", "pullback")
POLICY_KINDS = ("constant", "density", "boltzmann", "oscillatory", "fresnel")
ROUTES = ("pullback", "weight-borne")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2
EXIT_NOT_CONVERGED = 3
EXIT_CHECK_FAILED = 4

OUT_DIR_ENV = "DIRACMEAN_OUT"

_DEFAULT_STOPPING = {
    "window": 8,
    "rel_tol": 1e-4,
    "min_samples": 1000,
    "degeneracy_threshold": 1e-8,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with defaults filled."""

    mode: str
    budget: int | None
    source: dict | None
    policy: dict | None
    function: dict | None
    density: dict | None
    hierarchy: tuple[int, ...] | None
    bins_per_axis: tuple[int, ...] | None
    stopping: dict
    trace_stride: int
    significance: float
    block_size: int
    action: dict | None
    regularizer: dict | None
    route: str | None
    box_half_width: float | None
    sigmas: tuple[float, ...] | None
    tolerance: float | None
    truncation: float
    cells_per_axis: int
    out: str | None

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def stopping_rule(self) -> mean_mod.StoppingRule:
        return mean_mod.StoppingRule(**self.stopping)


# ---------------------------------------------------------------------------
# Parsing and validation


def _fail(field: str, message: str):
    raise ValidationError(f"{field}: {message}")


def _require_keys(obj: dict, allowed: set[str], field: str) -> None:
    extra = set(obj) - allowed
    if extra:
        _fail(field, f"unknown keys {sorted(extra)} (allowed: {sorted(allowed)})")


def _as_int(value, field: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(field, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        _fail(field, "must be finite")
    return float(value)


def _normalize_source(spec, field: str = "source") -> dict:
    if not isinstance(spec, dict):
        _fail(field, "expected an object with a 'kind'")
    kind = spec.get("kind")
    if kind not in SOURCE_KINDS:
        _fail(f"{field}.kind", f"{kind!r} is not one of {list(SOURCE_KINDS)}")
    if kind == "halton":
        _require_keys(spec, {"kind", "offset"}, field)
        return {"kind": kind, "offset": _as_int(spec.get("offset", 0), f"{field}.offset", 0)}
    if kind == "weyl":
        _require_keys(spec, {"kind", "alphas", "offset", "precision"}, field)
        out = {
            "kind": kind,
            "offset": _as_int(spec.get("offset", 0), f"{field}.offset", 0),
            "precision": _as_int(spec.get("precision", 256), f"{field}.precision", 64),
        }
        if spec.get("alphas") is not None:
            out["alphas"] = [str(a) for a in spec["alphas"]]
        return out
    if kind == "pseudorandom":
        _require_keys(spec, {"kind", "seed"}, field)
        return {"kind": kind, "seed": _as_int(spec.get("seed", 0), f"{field}.seed")}
    if kind == "convergent":
        _require_keys(spec, {"kind", "target", "rate", "offset"}, field)
        rate = _as_number(spec.get("rate", 0.5), f"{field}.rate")
        if not (0.0 < rate < 1.0):
            _fail(f"{field}.rate", "must lie in (0, 1)")

        def scalar_or_list(value, name):
            if isinstance(value, list):
                if not value:
                    _fail(name, "must not be empty")
                return [_as_number(v, name) for v in value]
            return _as_number(value, name)

        target = scalar_or_list(spec.get("target", 0.0), f"{field}.target")
        offset = scalar_or_list(spec.get("offset", 1.0), f"{field}.offset")
        return {"kind": kind, "target": target, "rate": rate, "offset": offset}
    _require_keys(spec, {"kind", "base", "quantiles"}, field)
    base = _normalize_source(spec.get("base"), f"{field}.base")
    quantiles = spec.get("quantiles", {"family": "normal", "widths": [1.0]})
    try:
        quantile_family_from_dict(quantiles)
    except Exception as exc:
        _fail(f"{field}.quantiles", str(exc))
    return {"kind": kind, "base": base, "quantiles": quantiles}


def build_source(spec: dict) -> PointSource:
    kind = spec["kind"]
    if kind == "halton":
        return halton_source(spec["offset"])
    if kind == "weyl":
        return weyl_source(spec.get("alphas"), spec["offset"], spec["precision"])
    if kind == "pseudorandom":
        return pseudorandom_source(spec["seed"])
    if kind == "convergent":
        return convergent_source(spec["target"], spec["rate"], spec["offset"])
    return pullback_source(
        build_source(spec["base"]), quantile_family_from_dict(spec["quantiles"])
    )


def _normalize_action(spec, field: str = "action") -> dict:
    if not isinstance(spec, dict):
        _fail(field, "expected an object with a 'matrix'")
    _require_keys(spec, {"kind", "matrix", "linear", "constant"}, field)
    if spec.get("kind", "quadratic") != "quadratic":
        _fail(f"{field}.kind", "only 'quadratic' actions are configurable")
    if "matrix" not in spec:
        _fail(f"{field}.matrix", "is required")
    out = {"kind": "quadratic", "matrix": spec["matrix"]}
    if spec.get("linear") is not None:
        out["linear"] = spec["linear"]
    out["constant"] = _as_number(spec.get("constant", 0.0), f"{field}.constant")
    try:
        build_action(out)
    except ValidationError:
        raise
    except Exception as exc:
        _fail(field, str(exc))
    return out


def build_action(spec: dict):
    return quadratic_action(spec["matrix"], spec.get("linear"), spec.get("constant", 0.0))


def _normalize_regularizer(spec, field: str = "regularizer") -> dict:
    if not isinstance(spec, dict):
        _fail(field, "expected an object with a 'family'")
    _require_keys(spec, {"family", "widths"}, field)
    if spec.get("family", "gaussian") != "gaussian":
        _fail(f"{field}.family", "only the 'gaussian' family is configurable")
    widths = spec.get("widths", [1.0])
    if np.isscalar(widths):
        widths = [widths]
    widths = [_as_number(w, f"{field}.widths") for w in widths]
    if any(w <= 0 for w in widths):
        _fail(f"{field}.widths", "must be positive")
    return {"family": "gaussian", "widths": widths}


def build_regularizer(spec: dict):
    return gaussian_regularizer(spec["widths"])


def _normalize_policy(spec, field: str = "policy") -> dict:
    if not isinstance(spec, dict):
        _fail(field, "expected an object with a 'kind'")
    kind = spec.get("kind")
    if kind not in POLICY_KINDS:
        _fail(f"{field}.kind", f"{kind!r} is not one of {list(POLICY_KINDS)}")
    if kind == "constant":
        _require_keys(spec, {"kind"}, field)
        return {"kind": kind}
    if kind == "density":
        _require_keys(spec, {"kind", "function"}, field)
        fn = spec.get("function")
        build_function(fn if isinstance(fn, dict) else None, f"{field}.function")
        return {"kind": kind, "function": fn}
    if kind in ("boltzmann", "oscillatory"):
        allowed = {"kind", "action"} | ({"index_phase"} if kind == "oscillatory" else set())
        _require_keys(spec, allowed, field)
        out = {"kind": kind, "action": _normalize_action(spec.get("action"), f"{field}.action")}
        if kind == "oscillatory":
            out["index_phase"] = _as_number(spec.get("index_phase", 0.0), f"{field}.index_phase")
        return out
    _require_keys(spec, {"kind", "action", "regularizer", "index_phase"}, field)
    return {
        "kind": kind,
        "action": _normalize_action(spec.get("action"), f"{field}.action"),
        "regularizer": _normalize_regularizer(
            spec.get("regularizer", {"family": "gaussian", "widths": [1.0]}),
            f"{field}.regularizer",
        ),
        "index_phase": _as_number(spec.get("index_phase", 0.0), f"{field}.index_phase"),
    }


def build_policy(spec: dict):
    kind = spec["kind"]
    if kind == "constant":
        return constant_policy()
    if kind == "density":
        fn = build_function(spec["function"], "policy.function")
        return density_policy(fn.eval_block, fn.rank)
    if kind == "boltzmann":
        return boltzmann_policy(build_action(spec["action"]))
    if kind == "oscillatory":
        return oscillatory_policy(build_action(spec["action"]), spec.get("index_phase", 0.0))
    return product_regularized_policy(
        build_regularizer(spec["regularizer"]),
        build_action(spec["action"]),
        spec.get("index_phase", 0.0),
    )


_TOP_KEYS = {
    "mode", "budget", "source", "policy", "function", "density", "hierarchy",
    "bins_per_axis", "stopping", "trace_stride", "significance", "block_size",
    "action", "regularizer", "route", "box_half_width", "sigmas", "tolerance",
    "truncation", "cells_per_axis", "out",
}


def parse_config(text: str, mode: str | None = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment description.

    Raises ``ParseError`` for malformed JSON (with line/column) and
    ``ValidationError`` naming the offending field otherwise.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("the experiment description must be a JSON object")
    return parse_config_dict(raw, mode)


def parse_config_dict(raw: dict, mode: str | None = None) -> ExperimentConfig:
    _require_keys(raw, _TOP_KEYS, "config")
    cfg_mode = raw.get("mode")
    if cfg_mode is not None and mode is not None and cfg_mode != mode:
        _fail("mode", f"config says {cfg_mode!r} but the command requested {mode!r}")
    resolved_mode = cfg_mode or mode
    if resolved_mode not in MODES:
        _fail("mode", f"{resolved_mode!r} is not one of {list(MODES)}")

    stopping = dict(_DEFAULT_STOPPING)
    raw_stopping = raw.get("stopping", {})
    if not isinstance(raw_stopping, dict):
        _fail("stopping", "expected an object")
    _require_keys(raw_stopping, set(_DEFAULT_STOPPING), "stopping")
    stopping.update(raw_stopping)
    for name, value in raw_stopping.items():
        try:
            mean_mod.StoppingRule(**{name: value})
        except ValueError as exc:
            _fail(f"stopping.{name}", str(exc))

    trace_stride = _as_int(raw.get("trace_stride", 1000), "trace_stride", 1)
    block_size = _as_int(raw.get("block_size", 4096), "block_size", 1)
    significance = _as_number(raw.get("significance", 0.999), "significance")
    if not (0.0 < significance < 1.0):
        _fail("significance", "must lie in (0, 1)")
    cells = _as_int(raw.get("cells_per_axis", 4), "cells_per_axis", 4)
    truncation = _as_number(raw.get("truncation", 8.0), "truncation")
    if truncation <= 0:
        _fail("truncation", "must be positive")

    budget = raw.get("budget")
    needs_budget = resolved_mode in ("estimate", "compare", "fresnel-scan", "certify")
    if needs_budget:
        budget = _as_int(budget if budget is not None else 0, "budget", 1)
    elif budget is not None:
        budget = _as_int(budget, "budget", 1)
    if resolved_mode in ("estimate", "compare", "fresnel-scan"):
        if budget < stopping["min_samples"]:
            _fail("budget", f"{budget} is below stopping.min_samples {stopping['min_samples']}")

    source = raw.get("source")
    if resolved_mode != "oracle":
        if source is None:
            _fail("source", "is required for this mode")
        source = _normalize_source(source)
    elif source is not None:
        source = _normalize_source(source)

    function = raw.get("function")
    if resolved_mode in ("estimate", "compare", "oracle"):
        if function is None:
            _fail("function", "is required for this mode")
    if function is not None:
        build_function(function, "function")

    density = raw.get("density")
    if density is not None:
        build_function(density, "density")

    route = raw.get("route")
    if route is not None and route not in ROUTES:
        _fail("route", f"{route!r} is not one of {list(ROUTES)}")
    action = raw.get("action")
    if action is not None:
        action = _normalize_action(action)
    regularizer = raw.get("regularizer")
    if regularizer is not None:
        regularizer = _normalize_regularizer(regularizer)

    policy = raw.get("policy")
    if resolved_mode in ("estimate", "compare"):
        if route is None and policy is None:
            _fail("policy", "either a policy or a route (action + regularizer) is required")
        if route is not None:
            if policy is not None:
                _fail("policy", "give either a policy or a route, not both")
            if action is None:
                _fail("action", "is required when a route is set")
            if regularizer is None:
                _fail("regularizer", "is required when a route is set")
    if policy is not None:
        policy = _normalize_policy(policy)

    if resolved_mode == "oracle" and density is None and (action is None or regularizer is None):
        _fail("density", "oracle mode needs a density, or an action plus a regularizer")

    hierarchy = raw.get("hierarchy")
    if resolved_mode == "certify" and hierarchy is None:
        hierarchy = [1, 2, 3]
    if hierarchy is not None:
        hierarchy = tuple(_as_int(r, "hierarchy", 1) for r in hierarchy)
        if any(b <= a for a, b in zip(hierarchy, hierarchy[1:])):
            _fail("hierarchy", "ranks must be strictly increasing")

    bins = raw.get("bins_per_axis")
    if bins is not None:
        bins = tuple(_as_int(b, "bins_per_axis", 2) for b in bins)
        if hierarchy is not None and len(bins) != len(hierarchy):
            _fail("bins_per_axis", "needs one entry per hierarchy rank")

    sigmas = raw.get("sigmas")
    if resolved_mode == "fresnel-scan":
        if sigmas is None:
            sigmas = [1.0, 2.0, 4.0]
        if action is None:
            _fail("action", "is required for fresnel-scan")
    if sigmas is not None:
        sigmas = tuple(_as_number(s, "sigmas") for s in sigmas)
        if any(s <= 0 for s in sigmas) or any(b <= a for a, b in zip(sigmas, sigmas[1:])):
            _fail("sigmas", "must be positive and strictly increasing")

    tolerance = raw.get("tolerance")
    if resolved_mode == "compare":
        tolerance = _as_number(tolerance if tolerance is not None else 5e-3, "tolerance")
        if tolerance <= 0:
            _fail("tolerance", "must be positive")
    elif tolerance is not None:
        tolerance = _as_number(tolerance, "tolerance")

    box_half_width = raw.get("box_half_width")
    if box_half_width is not None:
        box_half_width = _as_number(box_half_width, "box_half_width")
        if box_half_width <= 0:
            _fail("box_half_width", "must be positive")

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        _fail("out", "expected a path string")

    return ExperimentConfig(
        mode=resolved_mode,
        budget=budget,
        source=source,
        policy=policy,
        function=function,
        density=density,
        hierarchy=hierarchy,
        bins_per_axis=bins,
        stopping=stopping,
        trace_stride=trace_stride,
        significance=significance,
        block_size=block_size,
        action=action,
        regularizer=regularizer,
        route=route,
        box_half_width=box_half_width,
        sigmas=sigmas,
        tolerance=tolerance,
        truncation=truncation,
        cells_per_axis=cells,
        out=out,
    )


# ---------------------------------------------------------------------------
# Execution


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise DiracMeanError("refusing to write a non-finite value to an output file")
    return x


def _estimate_json(value) -> dict | str:
    if value is mean_mod.DEGENERATE:
        return "degenerate"
    return {"re": _finite(value.real), "im": _finite(value.imag)}


def _run_estimate(config: ExperimentConfig) -> tuple[int, dict, mean_mod.ConvergenceReport]:
    rule = config.stopping_rule()
    func = build_function(config.function, "function")
    if config.route is not None:
        report = oscillatory_mean(
            build_source(config.source),
            build_action(config.action),
            build_regularizer(config.regularizer),
            func,
            config.budget,
            rule,
            route=config.route,
            box_half_width=config.box_half_width,
            skip_certification=True,
            trace_stride=config.trace_stride,
            block_size=config.block_size,
        )
    else:
        report = mean_mod.run(
            build_source(config.source),
            build_policy(config.policy),
            func,
            config.budget,
            rule,
            trace_stride=config.trace_stride,
            block_size=config.block_size,
        )
    if report.degenerate:
        code = EXIT_DEGENERATE
    elif report.converged:
        code = EXIT_OK
    else:
        code = EXIT_NOT_CONVERGED
    result = report.summary_dict()
    result.pop("settings", None)
    result["final_estimate"] = _estimate_json(report.final_estimate)
    return code, result, report


def _mode_estimate(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    code, result, report = _run_estimate(config)
    trace_path = outdir / "trace.csv"
    report.write_csv(trace_path)
    return code, result, {"trace_csv": str(trace_path)}


def _mode_certify(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    reports = hierarchy_certify(
        build_source(config.source),
        config.hierarchy,
        config.budget,
        config.significance,
        config.bins_per_axis,
    )
    all_pass = all(r.passed for r in reports)
    result = {
        "levels": [r.to_dict() for r in reports],
        "pass": all_pass,
        "significance": config.significance,
    }
    return (EXIT_OK if all_pass else EXIT_CHECK_FAILED), result, {}


def _oracle_integrand(config: ExperimentConfig):
    """The density and domain the oracle should integrate against."""
    if config.density is not None:
        rho = build_function(config.density, "density")
        rank = rho.rank
        domain = tuple((0.0, 1.0) for _ in range(max(rank, 1)))
        return rho.eval_block, max(rank, 1), domain
    act = build_action(config.action)
    reg = build_regularizer(config.regularizer)
    rank = max(act.rank, reg.rank, 1)
    half = config.truncation * max(reg.widths)
    rho = product_regularized_policy(reg, act).weights
    return rho, rank, tuple((-half, half) for _ in range(rank))


def _mode_oracle(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    func = build_function(config.function, "function")
    rho, rank, domain = _oracle_integrand(config)
    if func.rank > rank:
        _fail("function", f"rank {func.rank} exceeds the density rank {rank}")
    spec = QuadratureSpec(domain=domain, cells_per_axis=config.cells_per_axis)
    value, cells = normalized_expectation_with_info(func.eval_block, rho, spec)
    result = {
        "value_re": _finite(value.real),
        "value_im": _finite(value.imag),
        "cells_used": cells,
    }
    return EXIT_OK, result, {}


def _sampling_density(config: ExperimentConfig):
    """Density (up to a constant) of the configured source's sampling
    measure, with its natural truncated domain; None for a cube source."""
    spec = config.source
    if spec["kind"] != "pullback":
        if spec["kind"] == "convergent":
            _fail("source", "compare mode needs an equidistributed source")
        return None, (0.0, 1.0)
    quant = spec["quantiles"]
    family = quant.get("family")
    widths = quant.get("widths", 1.0)
    ws = [widths] if np.isscalar(widths) else list(widths)
    if family == "normal":
        def rho(x, ws=ws):
            sig = np.asarray([ws[min(k, len(ws) - 1)] for k in range(x.shape[1])])
            return np.exp(-0.5 * np.sum((x / sig) ** 2, axis=1))
        half = config.truncation * max(ws)
        return rho, (-half, half)
    if family == "uniform-box":
        half = float(max(ws))
        return (lambda x: np.ones(len(x))), (-half, half)
    if family == "uniform":
        return (lambda x: np.ones(len(x))), (0.0, 1.0)
    _fail("source.quantiles", f"compare mode cannot derive a density for {family!r}")


def _compare_oracle(config: ExperimentConfig, func: CylinderFunction) -> tuple[complex, int]:
    if config.route is not None:
        act = build_action(config.action)
        reg = build_regularizer(config.regularizer)
        rank = max(act.rank, reg.rank, func.rank, 1)
        half = config.truncation * max(reg.widths)
        rho = product_regularized_policy(reg, act).weights
        domain = tuple((-half, half) for _ in range(rank))
    else:
        if config.policy.get("index_phase", 0.0) != 0.0:
            _fail("policy.index_phase",
                  "index-dependent phases have no point density to compare against")
        base_rho, interval = _sampling_density(config)
        policy = build_policy(config.policy)
        rank = max(policy.rank, func.rank, 1)

        def rho(x, base_rho=base_rho, policy=policy):
            w = policy.weights(x)
            return w if base_rho is None else base_rho(x) * w

        domain = tuple(interval for _ in range(rank))
    if rank > 3:
        _fail("function", "compare mode supports oracle ranks up to 3")
    spec = QuadratureSpec(domain=domain, cells_per_axis=config.cells_per_axis)
    return normalized_expectation_with_info(func.eval_block, rho, spec)


def _mode_compare(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    func = build_function(config.function, "function")
    code, est_result, report = _run_estimate(config)
    trace_path = outdir / "trace.csv"
    report.write_csv(trace_path)
    files = {"trace_csv": str(trace_path)}
    if report.degenerate:
        result = {"estimate": "degenerate", "oracle": None, "pass": False,
                  "tolerance": config.tolerance}
        return EXIT_DEGENERATE, result, files
    oracle_value, cells = _compare_oracle(config, func)
    error = abs(report.final_estimate - oracle_value)
    ok = error <= config.tolerance
    result = {
        "estimate": _estimate_json(report.final_estimate),
        "oracle": _estimate_json(oracle_value),
        "oracle_cells_used": cells,
        "abs_error": _finite(error),
        "tolerance": config.tolerance,
        "pass": ok,
        "stop_reason": report.stop_reason,
        "N_used": report.N_used,
    }
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), result, files


def _mode_fresnel_scan(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    rule = config.stopping_rule()
    source = build_source(config.source)
    act = build_action(config.action)
    func = (build_function(config.function, "function") if config.function is not None
            else CylinderFunction(1, lambda x: x[:, 0] ** 2, label="x1^2"))
    rows = []
    entries = []
    for sigma in config.sigmas:
        report = oscillatory_mean(
            source, act, gaussian_regularizer([sigma] * max(func.rank, 1)), func,
            config.budget, rule,
            route=config.route or "pullback",
            box_half_width=config.box_half_width,
            skip_certification=True,
            trace_stride=config.trace_stride,
            block_size=config.block_size,
        )
        est = report.final_estimate
        last = report.trace[-1]
        if report.degenerate:
            rows.append((repr(sigma), "", "", repr(last.den_ratio),
                         report.stop_reason, report.N_used))
        else:
            rows.append((repr(sigma), repr(_finite(est.real)), repr(_finite(est.imag)),
                         repr(last.den_ratio), report.stop_reason, report.N_used))
        entries.append({
            "sigma": sigma,
            "estimate": _estimate_json(est),
            "stop_reason": report.stop_reason,
            "N_used": report.N_used,
        })
    scan_path = outdir / "scan.csv"
    with open(scan_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("sigma", "re_est", "im_est", "den_ratio", "stop_reason", "N_used"))
        writer.writerows(rows)
    return EXIT_OK, {"scan": entries}, {"scan_csv": str(scan_path)}


_MODE_HANDLERS = {
    "estimate": _mode_estimate,
    "certify": _mode_certify,
    "oracle": _mode_oracle,
    "compare": _mode_compare,
    "fresnel-scan": _mode_fresnel_scan,
}


def execute(config: ExperimentConfig, out_dir: str | None = None) -> int:
    """Run the configured experiment, write ``summary.json`` (and any
    mode-specific CSVs) into the output directory, and return the exit
    code."""
    outdir = Path(out_dir or config.out or os.environ.get(OUT_DIR_ENV) or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    code, result, files = _MODE_HANDLERS[config.mode](config, outdir)
    summary = {
        "mode": config.mode,
        "exit_code": code,
        "result": result,
        "settings": config.to_dict(),
        "outputs": files,
    }
    summary_path = outdir / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    if args.budget is not None:
        raw["budget"] = args.budget
    if args.blocks is not None:
        raw["block_size"] = args.blocks
    if args.seed is not None:
        source = raw.get("source")
        if not (isinstance(source, dict) and source.get("kind") == "pseudorandom"):
            raise ValidationError("--seed applies only to a pseudorandom source")
        source = dict(source)
        source["seed"] = args.seed
        raw["source"] = source
    return raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="diracmean",
        description="Self-normalized weighted means over deterministic point sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES:
        p = sub.add_parser(name, help=f"run in {name} mode")
        p.add_argument("--config", required=True, help="path to the JSON experiment description")
        p.add_argument("--out", default=None, help="output directory (default: config, env, or cwd)")
        p.add_argument("--budget", type=int, default=None, help="override the sample budget")
        p.add_argument("--blocks", type=int, default=None,
                       help="index block size for accumulation (reproducibility knob)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed of a pseudorandom source")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ParseError("the experiment description must be a JSON object")
        raw = _apply_overrides(raw, args)
        config = parse_config_dict(raw, mode=args.command)
        return execute(config, out_dir=args.out)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_ERROR
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except DiracMeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
