"""Experiment driver: parse a JSON experiment description, wire the
source/policy/function, run, and emit a CSV trace plus a JSON summary.

Exit codes partition the outcomes: 0 success, 1 usage, config or
runtime error, 2 degenerate normalization, 3 non-convergence within
budget, 4 certification or comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import mean as mean_mod
from .action import (
    _route,
    _scan_action,
    _scan_widths,
    fresnel_limit_scan,
    quadratic_action,
)
from .cylinder import _bins_per_rank, _ranks, hierarchy_certify
from .errors import DiracMeanError, ParseError, ValidationError, as_count, as_number, as_numbers
from .oracle import QuadratureSpec, normalized_expectation
from .registry import _as_list, _built, build_function
from .seq import (
    _too_few_samples,
    box_quantiles,
    convergent_source,
    halton_source,
    normal_quantiles,
    pseudorandom_source,
    pullback_source,
    uniform_quantiles,
    weyl_source,
)
from .weights import (
    boltzmann_policy,
    constant_policy,
    density_policy,
    oscillatory_policy,
    product_regularized_policy,
)

__all__ = ["ExperimentConfig", "parse_config_dict", "execute", "main"]

MODES = ("estimate", "certify", "oracle", "fresnel-scan", "compare")
SOURCE_KINDS = ("halton", "weyl", "pseudorandom", "convergent", "pullback")
POLICY_KINDS = ("constant", "density", "boltzmann", "oscillatory", "fresnel")
ROUTES = ("pullback", "weight-borne")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2
EXIT_NOT_CONVERGED = 3
EXIT_CHECK_FAILED = 4


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
        raise ValidationError(field, f"expected an object with {needs}")


def _require_keys(obj: dict, allowed: set[str], field: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ValidationError(field, f"unknown keys {sorted(extra)} (allowed: {sorted(allowed)})")


def _source(spec, field: str = "source"):
    _require_object(spec, field, "a 'kind'")
    kind = spec.get("kind")
    if kind not in SOURCE_KINDS:
        raise ValidationError(f"{field}.kind", f"{kind!r} is not one of {list(SOURCE_KINDS)}")
    if kind == "halton":
        _require_keys(spec, {"kind", "offset"}, field)
        offset = as_count(f"{field}.offset", spec.get("offset", 0), 0)
        return {"kind": kind, "offset": offset}, halton_source(offset)
    if kind == "weyl":
        _require_keys(spec, {"kind", "alphas", "offset"}, field)
        out = {"kind": kind, "offset": as_count(f"{field}.offset", spec.get("offset", 0), 0)}
        if spec.get("alphas") is not None:
            out["alphas"] = [str(a) for a in _as_list(spec["alphas"], f"{field}.alphas")]
        return out, _built(f"{field}.alphas", weyl_source, out.get("alphas"), out["offset"])
    if kind == "pseudorandom":
        _require_keys(spec, {"kind", "seed"}, field)
        seed = as_count(f"{field}.seed", spec.get("seed", 0))
        return {"kind": kind, "seed": seed}, pseudorandom_source(seed)
    if kind == "convergent":
        _require_keys(spec, {"kind", "target", "rate", "offset"}, field)
        src = _built(field, convergent_source, target=spec.get("target", 0.0),
                     rate=spec.get("rate", 0.5), offset=spec.get("offset", 1.0))

        def echo(name):
            """The checked value, a list where the config gave one."""
            checked = getattr(src, name)
            return list(checked) if isinstance(spec.get(name), list) else checked[0]

        return {"kind": kind, "target": echo("target"), "rate": src.rate,
                "offset": echo("offset")}, src
    _require_keys(spec, {"kind", "base", "quantiles"}, field)
    base_spec, base = _source(spec.get("base"), f"{field}.base")
    quantiles, family = _quantiles(spec.get("quantiles", {"family": "normal"}),
                                   f"{field}.quantiles")
    out = {"kind": kind, "base": base_spec, "quantiles": quantiles}
    return out, _built(f"{field}.base", pullback_source, base, family)


def _quantiles(spec, field: str):
    _require_object(spec, field, "a 'family'")
    family = spec.get("family")
    if family == "uniform":
        _require_keys(spec, {"family"}, field)
        return {"family": family}, uniform_quantiles()
    if family not in ("normal", "uniform-box"):
        raise ValidationError(f"{field}.family",
                              f"{family!r} is not one of ['uniform', 'normal', 'uniform-box']")
    _require_keys(spec, {"family", "widths"}, field)
    build = normal_quantiles if family == "normal" else box_quantiles
    widths = as_numbers(f"{field}.widths", spec.get("widths", 1.0), 0.0)
    return {"family": family, "widths": list(widths)}, build(widths)


def _check_source(spec: dict, rank: int, pulled_back: bool, field: str = "source") -> None:
    """Fail unless explicit Weyl ``alphas`` cover the ``rank`` coordinates a
    run reads from the normalized source ``spec``, and unless a Halton or
    Weyl source that is ``pulled_back`` through quantiles starts past its
    point 0, the origin, where the quantiles are infinite."""
    if spec["kind"] == "pullback":
        _check_source(spec["base"], rank, True, f"{field}.base")
        return
    if "alphas" in spec and len(spec["alphas"]) < rank:
        raise ValidationError(f"{field}.alphas",
                              f"{len(spec['alphas'])} given but the run reads {rank} coordinates")
    if pulled_back and spec["kind"] in ("halton", "weyl") and spec["offset"] == 0:
        raise ValidationError(f"{field}.offset", "must be at least 1 where the source is "
                              "pulled back through quantiles: its point 0 is the origin")


def _action(spec, field: str = "action"):
    _require_object(spec, field, "a 'matrix'")
    _require_keys(spec, {"kind", "matrix", "linear", "constant"}, field)
    if spec.get("kind", "quadratic") != "quadratic":
        raise ValidationError(f"{field}.kind", "only 'quadratic' actions are configurable")
    if "matrix" not in spec:
        raise ValidationError(f"{field}.matrix", "is required")
    out = {"kind": "quadratic", "matrix": spec["matrix"]}
    if spec.get("linear") is not None:
        out["linear"] = spec["linear"]
    out["constant"] = as_number(f"{field}.constant", spec.get("constant", 0.0))
    return out, _built(field, quadratic_action, out["matrix"], out.get("linear"), out["constant"])


def _regularizer(spec, field: str = "regularizer"):
    _require_object(spec, field, "a 'family'")
    _require_keys(spec, {"family", "widths"}, field)
    if spec.get("family", "gaussian") != "gaussian":
        raise ValidationError(f"{field}.family", "only the 'gaussian' family is configurable")
    reg = _built(f"{field}.widths", normal_quantiles, spec.get("widths", [1.0]))
    return {"family": "gaussian", "widths": list(reg.widths)}, reg


def _policy(spec, field: str = "policy"):
    _require_object(spec, field, "a 'kind'")
    kind = spec.get("kind")
    if kind not in POLICY_KINDS:
        raise ValidationError(f"{field}.kind", f"{kind!r} is not one of {list(POLICY_KINDS)}")
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
    out["index_phase"] = as_number(f"{field}.index_phase", spec.get("index_phase", 0.0))
    if kind == "oscillatory":
        return out, oscillatory_policy(act, out["index_phase"])
    return out, product_regularized_policy(reg, act, out["index_phase"])


def _load(data: bytes) -> dict:
    """The JSON object in ``data``, which must be UTF-8; ``ParseError`` else."""
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"the experiment description is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("the experiment description must be a JSON object")
    return raw


def parse_config_dict(raw: dict, mode: str | None = None) -> ExperimentConfig:
    """Validate a decoded experiment description, whose top-level keys are
    ``ExperimentConfig``'s fields; a ``ValidationError`` names a bad field."""
    _require_keys(raw, {f.name for f in fields(ExperimentConfig)}, "config")
    cfg_mode = raw.get("mode")
    if cfg_mode is not None and mode is not None and cfg_mode != mode:
        raise ValidationError("mode",
                              f"config says {cfg_mode!r} but the command requested {mode!r}")
    resolved_mode = cfg_mode or mode
    if resolved_mode not in MODES:
        raise ValidationError("mode", f"{resolved_mode!r} is not one of {list(MODES)}")

    stopping = asdict(mean_mod.StoppingRule())
    raw_stopping = raw.get("stopping", {})
    _require_object(raw_stopping, "stopping", "stopping-rule fields")
    _require_keys(raw_stopping, set(stopping), "stopping")
    for name, value in raw_stopping.items():
        _built(f"stopping.{name}", mean_mod.StoppingRule, **{name: value})
    stopping.update(raw_stopping)

    trace_stride = as_count("trace_stride", raw.get("trace_stride", 1000), 1)
    block_size = as_count("block_size", raw.get("block_size", 4096), 1)
    significance = as_number("significance", raw.get("significance", 0.999), 0.0, 1.0)
    cells = as_count("cells_per_axis", raw.get("cells_per_axis", 4), 4)
    truncation = as_number("truncation", raw.get("truncation", 8.0), 0.0)

    budget = raw.get("budget")
    if budget is not None or resolved_mode != "oracle":
        budget = as_count("budget", 0 if budget is None else budget, 1)
    if resolved_mode in ("estimate", "compare", "fresnel-scan"):
        if budget < stopping["min_samples"]:
            raise ValidationError(
                "budget", f"{budget} is below stopping.min_samples {stopping['min_samples']}")

    source = raw.get("source")
    if resolved_mode != "oracle" and source is None:
        raise ValidationError("source", "is required for this mode")
    if source is not None:
        source = _source(source)[0]

    function = raw.get("function")
    if resolved_mode in ("estimate", "compare", "oracle"):
        if function is None:
            raise ValidationError("function", "is required for this mode")
    f_rank = 0 if function is None else build_function(function, "function").rank

    density = raw.get("density")
    if density is not None:
        build_function(density, "density")

    route = raw.get("route")
    if route is not None and route not in ROUTES:
        raise ValidationError("route", f"{route!r} is not one of {list(ROUTES)}")
    action = raw.get("action")
    if action is not None:
        action, act = _action(action)
    regularizer = raw.get("regularizer")
    if regularizer is not None:
        regularizer = _regularizer(regularizer)[0]

    policy = raw.get("policy")
    if resolved_mode in ("estimate", "compare"):
        if route is None and policy is None:
            raise ValidationError(
                "policy", "either a policy or a route (action + regularizer) is required")
        if route is not None:
            if policy is not None:
                raise ValidationError("policy", "give either a policy or a route, not both")
            if action is None:
                raise ValidationError("action", "is required when a route is set")
            if regularizer is None:
                raise ValidationError("regularizer", "is required when a route is set")
    # A route pulls the configured source back itself; fresnel-scan always routes.
    routed = resolved_mode == "fresnel-scan" or (
        resolved_mode in ("estimate", "compare") and route is not None)
    if routed and source["kind"] == "pullback":
        raise ValidationError("source.kind", "a route needs a unit-cube source, not 'pullback'")
    if policy is not None:
        policy = _policy(policy)[0]

    if resolved_mode == "oracle" and density is None and (action is None or regularizer is None):
        raise ValidationError(
            "density", "oracle mode needs a density, or an action plus a regularizer")

    hierarchy = raw.get("hierarchy")
    if resolved_mode == "certify" and hierarchy is None:
        hierarchy = [1, 2, 3]
    if hierarchy is not None:
        hierarchy = _built("hierarchy", _ranks, _as_list(hierarchy, "hierarchy"))

    bins = raw.get("bins_per_axis")
    if bins is not None:
        bins = tuple(as_count("bins_per_axis", b, 2) for b in _as_list(bins, "bins_per_axis"))
        if hierarchy is not None and len(bins) != len(hierarchy):
            raise ValidationError("bins_per_axis", "needs one entry per hierarchy rank")
    if resolved_mode == "certify":
        if source["kind"] == "pullback":
            raise ValidationError("source.kind", "certify needs a unit-cube source, not 'pullback'")
        for rank, b in zip(hierarchy, _bins_per_rank(hierarchy, budget, bins)):
            shortfall = _too_few_samples(budget, rank, b)
            if shortfall:
                raise ValidationError("budget" if bins is None else "bins_per_axis", shortfall)

    sigmas = raw.get("sigmas")
    if resolved_mode == "fresnel-scan":
        if sigmas is None:
            sigmas = [1.0, 2.0, 4.0]
        if action is None:
            raise ValidationError("action", "is required for fresnel-scan")
        _scan_action(act)
    if sigmas is not None:
        sigmas = _scan_widths(_as_list(sigmas, "sigmas"), "sigmas")

    tolerance = raw.get("tolerance")
    if resolved_mode == "compare":
        tolerance = as_number("tolerance", tolerance if tolerance is not None else 5e-3, 0.0)
    elif tolerance is not None:
        tolerance = as_number("tolerance", tolerance)

    box_half_width = raw.get("box_half_width")
    if box_half_width is not None:
        box_half_width = as_number("box_half_width", box_half_width, 0.0)

    config = ExperimentConfig(
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
    )
    if resolved_mode != "oracle":
        # The coordinates the run reads, which explicit alphas must cover.
        if resolved_mode == "certify":
            rank = max(hierarchy)
        elif resolved_mode == "fresnel-scan":
            rank = max(f_rank, 1)
        else:
            rank = mean_mod._rank(*_estimate_inputs(config)[1:])
        _check_source(source, rank, routed)
    if resolved_mode in ("oracle", "compare"):
        _oracle_integrand(config, build_function(function, "function"))
    return config


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


def _estimate_inputs(config: ExperimentConfig):
    """The source, policy and function of an ``estimate`` or ``compare``
    run: the configured policy over the configured source, or a route's
    source and policy as ``oscillatory_mean`` builds them."""
    source = _source(config.source)[1]
    func = build_function(config.function, "function")
    if config.route is None:
        return source, _policy(config.policy)[1], func
    source, policy = _built(
        "regularizer.widths", _route, source, _action(config.action)[1],
        _regularizer(config.regularizer)[1], func, config.route, config.box_half_width)
    return source, policy, func


def _run_estimate(config: ExperimentConfig) -> tuple[int, dict, mean_mod.ConvergenceReport]:
    report = mean_mod.run(*_estimate_inputs(config), config.budget, config.stopping_rule(),
                          config.trace_stride, config.block_size)
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


def _oracle_integrand(config: ExperimentConfig, func):
    """The quadrature oracle's density and spec for an ``oracle`` or
    ``compare`` run: an oracle's ``density`` on the unit cube; else the
    regularizer and action's ``xi e^{-iS}`` on the regularizer measure's
    truncated domain, for an oracle or a compare route; else the source's
    sampling density times the policy's weights on the source's domain."""
    if config.mode == "oracle" and config.density is not None:
        density = build_function(config.density, "density")
        rho, domain = density.eval_block, ((0.0, 1.0),) * max(density.rank, 1)
    elif config.mode == "oracle" or config.route is not None:
        act = _action(config.action)[1]
        reg = _regularizer(config.regularizer)[1]
        pol = product_regularized_policy(reg, act)
        rank = max(pol.rank, func.rank if config.mode == "compare" else 0)
        rho = pol.weights
        domain = reg.domain(rank, config.truncation)
    else:
        if config.policy.get("index_phase", 0.0) != 0.0:
            raise ValidationError("policy.index_phase",
                                  "index-dependent phases have no point density to compare against")
        source, policy, _ = _estimate_inputs(config)
        if source.kind == "convergent":
            raise ValidationError("source", "compare mode needs an equidistributed source")
        family = source.quantiles if source.kind == "pullback" else uniform_quantiles()
        domain = family.domain(mean_mod._rank(policy, func), config.truncation)
        density, weights = family.density, policy.weights
        rho = weights if density is None else (lambda x: density(x) * weights(x))
    if func.rank > len(domain):
        raise ValidationError("function", f"rank {func.rank} exceeds the density rank {len(domain)}")
    if len(domain) > 3:
        if config.mode == "oracle":
            raise ValidationError("density", "oracle mode supports ranks up to 3")
        raise ValidationError("function", "compare mode supports oracle ranks up to 3")
    return rho, _built("cells_per_axis", QuadratureSpec, domain, config.cells_per_axis)


def _mode_oracle(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    func = build_function(config.function, "function")
    value, cells = normalized_expectation(func.eval_block, *_oracle_integrand(config, func))
    result = {
        "value_re": _finite(value.real),
        "value_im": _finite(value.imag),
        "cells_used": cells,
    }
    return EXIT_OK, result, {}


def _mode_compare(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    func = build_function(config.function, "function")
    rho, spec = _oracle_integrand(config, func)
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
        den_ratio = report.den_ratio
        if report.degenerate:
            rows.append((repr(sigma), "", "", repr(den_ratio),
                         report.stop_reason, report.N_used))
        else:
            rows.append((repr(sigma), repr(_finite(est.real)), repr(_finite(est.imag)),
                         repr(den_ratio), report.stop_reason, report.N_used))
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


def execute(config: ExperimentConfig, out_dir: str | Path) -> int:
    """Run the configured experiment into the directory ``out_dir`` (made
    if missing) and return the exit code: ``summary.json`` goes there, with
    ``trace.csv`` (estimate, compare) or ``scan.csv`` (fresnel-scan)."""
    outdir = Path(out_dir)
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


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line and exit 1, like any other
    error: argparse's exit 2 means a degenerate normalization here."""

    def error(self, message):
        raise DiracMeanError(f"{message} (see '{self.prog} --help')")


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand in ``argv`` (default: the command line); return its exit code."""
    parser = _Parser(
        prog="diracmean",
        description="Self-normalized weighted means over deterministic point sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES:
        p = sub.add_parser(name, help=f"run in {name} mode")
        p.add_argument("--config", required=True, help="path to the JSON experiment description")
        p.add_argument("--out", default=".", help="output directory (default: the working directory)")
    try:
        args = parser.parse_args(argv)
        try:
            data = Path(args.config).read_bytes()
        except OSError as exc:
            raise DiracMeanError(f"cannot read config: {exc}") from exc
        return execute(parse_config_dict(_load(data), mode=args.command), args.out)
    except DiracMeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
