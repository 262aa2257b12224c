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
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import mean as mean_mod
from .action import fresnel_limit_scan, gaussian_regularizer, oscillatory_mean, quadratic_action
from .cylinder import ProjectionHierarchy, hierarchy_certify
from .errors import DiracMeanError, ParseError
from .oracle import QuadratureSpec, normalized_expectation
from .registry import _as_int, _as_list, _as_number, _built, _fail, build_function
from .seq import (
    _per_coordinate,
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
# Config sections: each is validated and built by one function, returning
# the normalized spec (what ``summary.json`` echoes) and the built object.


def _require_object(spec, field: str, needs: str) -> None:
    if not isinstance(spec, dict):
        _fail(field, f"expected an object with {needs}")


def _require_keys(obj: dict, allowed: set[str], field: str) -> None:
    extra = set(obj) - allowed
    if extra:
        _fail(field, f"unknown keys {sorted(extra)} (allowed: {sorted(allowed)})")


def _source(spec, field: str = "source"):
    _require_object(spec, field, "a 'kind'")
    kind = spec.get("kind")
    if kind not in SOURCE_KINDS:
        _fail(f"{field}.kind", f"{kind!r} is not one of {list(SOURCE_KINDS)}")
    if kind == "halton":
        _require_keys(spec, {"kind", "offset"}, field)
        offset = _as_int(spec.get("offset", 0), f"{field}.offset", 0)
        return {"kind": kind, "offset": offset}, halton_source(offset)
    if kind == "weyl":
        _require_keys(spec, {"kind", "alphas", "offset", "precision"}, field)
        out = {
            "kind": kind,
            "offset": _as_int(spec.get("offset", 0), f"{field}.offset", 0),
            "precision": _as_int(spec.get("precision", 256), f"{field}.precision", 64),
        }
        if spec.get("alphas") is not None:
            out["alphas"] = [str(a) for a in _as_list(spec["alphas"], f"{field}.alphas")]
        return out, _built(f"{field}.alphas", weyl_source,
                           out.get("alphas"), out["offset"], out["precision"])
    if kind == "pseudorandom":
        _require_keys(spec, {"kind", "seed"}, field)
        seed = _as_int(spec.get("seed", 0), f"{field}.seed")
        return {"kind": kind, "seed": seed}, pseudorandom_source(seed)
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
        out = {"kind": kind, "target": target, "rate": rate, "offset": offset}
        return out, convergent_source(target, rate, offset)
    _require_keys(spec, {"kind", "base", "quantiles"}, field)
    base_spec, base = _source(spec.get("base"), f"{field}.base")
    quantiles = spec.get("quantiles", {"family": "normal", "widths": [1.0]})
    family = _built(f"{field}.quantiles", quantile_family_from_dict, quantiles)
    out = {"kind": kind, "base": base_spec, "quantiles": quantiles}
    return out, _built(f"{field}.base", pullback_source, base, family)


def _check_alphas(spec: dict, rank: int, field: str = "source") -> None:
    """Fail unless explicit Weyl ``alphas`` cover the ``rank`` coordinates a
    run reads from the normalized source ``spec``."""
    if spec["kind"] == "pullback":
        _check_alphas(spec["base"], rank, f"{field}.base")
    elif "alphas" in spec and len(spec["alphas"]) < rank:
        _fail(f"{field}.alphas",
              f"{len(spec['alphas'])} given but the run reads {rank} coordinates")


def _action(spec, field: str = "action"):
    _require_object(spec, field, "a 'matrix'")
    _require_keys(spec, {"kind", "matrix", "linear", "constant"}, field)
    if spec.get("kind", "quadratic") != "quadratic":
        _fail(f"{field}.kind", "only 'quadratic' actions are configurable")
    if "matrix" not in spec:
        _fail(f"{field}.matrix", "is required")
    out = {"kind": "quadratic", "matrix": spec["matrix"]}
    if spec.get("linear") is not None:
        out["linear"] = spec["linear"]
    out["constant"] = _as_number(spec.get("constant", 0.0), f"{field}.constant")
    return out, _built(field, quadratic_action, out["matrix"], out.get("linear"), out["constant"])


def _regularizer(spec, field: str = "regularizer"):
    _require_object(spec, field, "a 'family'")
    _require_keys(spec, {"family", "widths"}, field)
    if spec.get("family", "gaussian") != "gaussian":
        _fail(f"{field}.family", "only the 'gaussian' family is configurable")
    widths = spec.get("widths", [1.0])
    if not isinstance(widths, list):
        widths = [widths]
    widths = [_as_number(w, f"{field}.widths") for w in widths]
    reg = _built(f"{field}.widths", gaussian_regularizer, widths)
    return {"family": "gaussian", "widths": widths}, reg


def _policy(spec, field: str = "policy"):
    _require_object(spec, field, "a 'kind'")
    kind = spec.get("kind")
    if kind not in POLICY_KINDS:
        _fail(f"{field}.kind", f"{kind!r} is not one of {list(POLICY_KINDS)}")
    if kind == "constant":
        _require_keys(spec, {"kind"}, field)
        return {"kind": kind}, constant_policy()
    if kind == "density":
        _require_keys(spec, {"kind", "function"}, field)
        fn = build_function(spec.get("function"), f"{field}.function")
        return {"kind": kind, "function": spec["function"]}, density_policy(fn.eval_block, fn.rank)
    extra = {"boltzmann": set(), "oscillatory": {"index_phase"},
             "fresnel": {"index_phase", "regularizer"}}[kind]
    _require_keys(spec, {"kind", "action"} | extra, field)
    out = {"kind": kind}
    out["action"], act = _action(spec.get("action"), f"{field}.action")
    if kind == "boltzmann":
        return out, boltzmann_policy(act)
    if kind == "fresnel":
        out["regularizer"], reg = _regularizer(
            spec.get("regularizer", {"family": "gaussian", "widths": [1.0]}),
            f"{field}.regularizer",
        )
    out["index_phase"] = _as_number(spec.get("index_phase", 0.0), f"{field}.index_phase")
    if kind == "oscillatory":
        return out, oscillatory_policy(act, out["index_phase"])
    return out, product_regularized_policy(reg, act, out["index_phase"])


_TOP_KEYS = {
    "mode", "budget", "source", "policy", "function", "density", "hierarchy",
    "bins_per_axis", "stopping", "trace_stride", "significance", "block_size",
    "action", "regularizer", "route", "box_half_width", "sigmas", "tolerance",
    "truncation", "cells_per_axis", "out",
}


def _load(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("the experiment description must be a JSON object")
    return raw


def parse_config(text: str, mode: str | None = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment description.

    Raises ``ParseError`` for malformed JSON (with line/column) and
    ``ValidationError`` naming the offending field otherwise.
    """
    return parse_config_dict(_load(text), mode)


def parse_config_dict(raw: dict, mode: str | None = None) -> ExperimentConfig:
    _require_keys(raw, _TOP_KEYS, "config")
    cfg_mode = raw.get("mode")
    if cfg_mode is not None and mode is not None and cfg_mode != mode:
        _fail("mode", f"config says {cfg_mode!r} but the command requested {mode!r}")
    resolved_mode = cfg_mode or mode
    if resolved_mode not in MODES:
        _fail("mode", f"{resolved_mode!r} is not one of {list(MODES)}")

    stopping = asdict(mean_mod.StoppingRule())
    raw_stopping = raw.get("stopping", {})
    _require_object(raw_stopping, "stopping", "stopping-rule fields")
    _require_keys(raw_stopping, set(stopping), "stopping")
    for name, value in raw_stopping.items():
        _built(f"stopping.{name}", mean_mod.StoppingRule, **{name: value})
    stopping.update(raw_stopping)

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
    if resolved_mode != "oracle" and source is None:
        _fail("source", "is required for this mode")
    if source is not None:
        source = _source(source)[0]

    function = raw.get("function")
    if resolved_mode in ("estimate", "compare", "oracle"):
        if function is None:
            _fail("function", "is required for this mode")
    f_rank = 0 if function is None else build_function(function, "function").rank

    density = raw.get("density")
    if density is not None:
        build_function(density, "density")

    route = raw.get("route")
    if route is not None and route not in ROUTES:
        _fail("route", f"{route!r} is not one of {list(ROUTES)}")
    action = raw.get("action")
    if action is not None:
        action, act = _action(action)
    regularizer = raw.get("regularizer")
    if regularizer is not None:
        regularizer = _regularizer(regularizer)[0]

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
        policy, pol = _policy(policy)

    if resolved_mode == "oracle" and density is None and (action is None or regularizer is None):
        _fail("density", "oracle mode needs a density, or an action plus a regularizer")

    hierarchy = raw.get("hierarchy")
    if resolved_mode == "certify" and hierarchy is None:
        hierarchy = [1, 2, 3]
    if hierarchy is not None:
        hierarchy = tuple(_as_int(r, "hierarchy") for r in _as_list(hierarchy, "hierarchy"))
        _built("hierarchy", ProjectionHierarchy, hierarchy)

    # The coordinates the run reads, which explicit alphas and a route's
    # regularizer must cover.
    rank = None
    if resolved_mode == "certify":
        rank = max(hierarchy)
    elif resolved_mode == "fresnel-scan":
        rank = max(f_rank, 1)
    elif resolved_mode in ("estimate", "compare"):
        rank = max(pol.rank if route is None else act.rank, f_rank, 1)
        if route is not None and len(regularizer["widths"]) < rank:
            _fail("regularizer.widths", f"covers {len(regularizer['widths'])} coordinates "
                  f"but the action/function need {rank}")
    if rank is not None:
        _check_alphas(source, rank)

    bins = raw.get("bins_per_axis")
    if bins is not None:
        bins = tuple(_as_int(b, "bins_per_axis", 2) for b in _as_list(bins, "bins_per_axis"))
        if hierarchy is not None and len(bins) != len(hierarchy):
            _fail("bins_per_axis", "needs one entry per hierarchy rank")

    sigmas = raw.get("sigmas")
    if resolved_mode == "fresnel-scan":
        if sigmas is None:
            sigmas = [1.0, 2.0, 4.0]
        if action is None:
            _fail("action", "is required for fresnel-scan")
        if act.rank != 1 or act.matrix[0, 0] == 0.0:
            _fail("action", "fresnel-scan needs a rank-1 action with nonzero curvature")
    if sigmas is not None:
        sigmas = tuple(_as_number(s, "sigmas") for s in _as_list(sigmas, "sigmas"))
        if (not sigmas or any(s <= 0 for s in sigmas)
                or any(b <= a for a, b in zip(sigmas, sigmas[1:]))):
            _fail("sigmas", "must be nonempty, positive and strictly increasing")

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
    source = _source(config.source)[1]
    func = build_function(config.function, "function")
    if config.route is not None:
        report = oscillatory_mean(
            source,
            _action(config.action)[1],
            _regularizer(config.regularizer)[1],
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
            source,
            _policy(config.policy)[1],
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
    result["final_estimate"] = _estimate_json(report.final_estimate)
    return code, result, report


def _mode_estimate(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    code, result, report = _run_estimate(config)
    trace_path = outdir / "trace.csv"
    report.write_csv(trace_path)
    return code, result, {"trace_csv": str(trace_path)}


def _mode_certify(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    reports = hierarchy_certify(
        _source(config.source)[1],
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


def _route_density(config: ExperimentConfig, min_rank: int = 1):
    """``xi e^{-iS}`` of the configured regularizer and action, and the box
    it is integrated over: at least ``min_rank`` axes, each truncated at
    ``truncation`` times the widest regularizer width."""
    act = _action(config.action)[1]
    reg = _regularizer(config.regularizer)[1]
    half = config.truncation * max(reg.widths)
    rank = max(act.rank, reg.rank, min_rank)
    return product_regularized_policy(reg, act).weights, ((-half, half),) * rank


def _mode_oracle(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    func = build_function(config.function, "function")
    if config.density is not None:
        density = build_function(config.density, "density")
        rho, domain = density.eval_block, ((0.0, 1.0),) * max(density.rank, 1)
    else:
        rho, domain = _route_density(config)
    if func.rank > len(domain):
        _fail("function", f"rank {func.rank} exceeds the density rank {len(domain)}")
    if len(domain) > 3:
        _fail("density", "oracle mode supports ranks up to 3")
    spec = _built("cells_per_axis", QuadratureSpec, domain, config.cells_per_axis)
    value, cells = normalized_expectation(func.eval_block, rho, spec)
    result = {
        "value_re": _finite(value.real),
        "value_im": _finite(value.imag),
        "cells_used": cells,
    }
    return EXIT_OK, result, {}


def _sampling_density(config: ExperimentConfig, rank: int):
    """Density (up to a constant; None when uniform) of the configured
    source's sampling measure on ``rank`` coordinates, and its natural
    truncated domain."""
    source = _source(config.source)[1]
    if source.kind == "convergent":
        _fail("source", "compare mode needs an equidistributed source")
    family = getattr(source, "quantiles", None)
    if family is None or family.family == "uniform":
        return None, ((0.0, 1.0),) * rank
    if family.family == "uniform-box":
        hs = [_per_coordinate(family.half_widths, k) for k in range(rank)]
        return None, tuple((-h, h) for h in hs)
    ws = [_per_coordinate(family.widths, k) for k in range(rank)]
    half = config.truncation * max(family.widths)
    return gaussian_regularizer(ws).value, ((-half, half),) * rank


def _compare_integrand(config: ExperimentConfig, func):
    """The oracle's density and quadrature spec for a compare run."""
    if config.route is not None:
        rho, domain = _route_density(config, func.rank)
    else:
        if config.policy.get("index_phase", 0.0) != 0.0:
            _fail("policy.index_phase",
                  "index-dependent phases have no point density to compare against")
        policy = _policy(config.policy)[1]
        rank = max(policy.rank, func.rank, 1)
        base_rho, domain = _sampling_density(config, rank)

        def rho(x, base_rho=base_rho, policy=policy):
            w = policy.weights(x)
            return w if base_rho is None else base_rho(x) * w

    if len(domain) > 3:
        _fail("function", "compare mode supports oracle ranks up to 3")
    return rho, _built("cells_per_axis", QuadratureSpec, domain, config.cells_per_axis)


def _mode_compare(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    func = build_function(config.function, "function")
    rho, spec = _compare_integrand(config, func)
    report = _run_estimate(config)[2]
    trace_path = outdir / "trace.csv"
    report.write_csv(trace_path)
    files = {"trace_csv": str(trace_path)}
    if report.degenerate:
        result = {"estimate": "degenerate", "oracle": None, "pass": False,
                  "tolerance": config.tolerance}
        return EXIT_DEGENERATE, result, files
    oracle_value, cells = normalized_expectation(func.eval_block, rho, spec)
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
    scan = fresnel_limit_scan(
        _source(config.source)[1],
        _action(config.action)[1],
        config.sigmas,
        None if config.function is None else build_function(config.function, "function"),
        config.budget,
        config.stopping_rule(),
        route=config.route or "pullback",
        box_half_width=config.box_half_width,
        skip_certification=True,
        trace_stride=config.trace_stride,
        block_size=config.block_size,
    )
    rows = []
    entries = []
    for sigma, report in scan:
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
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DiracMeanError(f"cannot create output directory '{outdir}': {exc.strerror}") from exc
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
            _fail("--seed", "applies only to a pseudorandom source")
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
        config = parse_config_dict(_apply_overrides(_load(text), args), mode=args.command)
        return execute(config, out_dir=args.out)
    except DiracMeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
