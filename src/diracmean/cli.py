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

import numpy as np

from . import mean as mean_mod
from .action import _route, _scan_action, _scan_widths, fresnel_limit_scan
from .cylinder import _SIGNIFICANCE, _bins_per_rank, _ranks, hierarchy_certify
from .errors import DiracMeanError, ParseError, ValidationError, as_count, as_number
from .oracle import _box, normalized_expectation
from .registry import _as_list, _built, _quadratic, _require_keys, _widths, build_function
from .seq import (
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

SOURCE_KINDS = ("halton", "weyl", "pseudorandom", "convergent", "pullback")
POLICY_KINDS = ("constant", "density", "boltzmann", "oscillatory")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2
EXIT_NOT_CONVERGED = 3
EXIT_CHECK_FAILED = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with defaults filled; a field its
    mode does not read is ``None``.  What the library fixes is not a field:
    the certificate's bins and level (0.999), a run's blocks of 4096
    points, the weight-borne route's box (8x the widest regularizer width)
    and the oracle's first grid (4 cells per axis)."""

    mode: str
    budget: int | None
    source: dict | None
    policy: dict | None
    function: dict | None
    density: dict | None
    hierarchy: tuple[int, ...] | None
    stopping: dict | None
    action: dict | None
    regularizer: dict | None
    route: str | None
    sigmas: tuple[float, ...] | None
    tolerance: float | None
    truncation: float | None

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
    widths = _widths(spec, field)
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
    out, act = _quadratic(spec, field)
    return {"kind": "quadratic", **out}, act


def _regularizer(spec, field: str = "regularizer"):
    _require_object(spec, field, "a 'family'")
    _require_keys(spec, {"family", "widths"}, field)
    if spec.get("family", "gaussian") != "gaussian":
        raise ValidationError(f"{field}.family", "only the 'gaussian' family is configurable")
    reg = normal_quantiles(_widths(spec, field))
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
    keys = {"kind", "action", "index_phase"} if kind == "oscillatory" else {"kind", "action"}
    _require_keys(spec, keys, field)
    out = {"kind": kind}
    out["action"], act = _action(spec.get("action"), f"{field}.action")
    if kind == "boltzmann":
        return out, boltzmann_policy(act)
    out["index_phase"] = as_number(f"{field}.index_phase", spec.get("index_phase", 0.0))
    return out, oscillatory_policy(act, out["index_phase"])


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


def _stopping(spec) -> dict:
    """The stopping rule's fields, the defaults filled."""
    _require_object(spec, "stopping", "stopping-rule fields")
    stopping = asdict(mean_mod.StoppingRule())
    _require_keys(spec, set(stopping), "stopping")
    for name, value in spec.items():
        _built(f"stopping.{name}", mean_mod.StoppingRule, **{name: value})
    return dict(stopping, **spec)


def _function(spec, field: str) -> dict:
    build_function(spec, field)
    return spec


# Each config key's check, returning the normalized value ``settings`` echoes.
_CHECKS = {
    "budget": lambda v: as_count("budget", v, 1),
    "source": lambda v: _source(v)[0],
    "policy": lambda v: _policy(v)[0],
    "function": lambda v: _function(v, "function"),
    "density": lambda v: _function(v, "density"),
    "hierarchy": lambda v: _built("hierarchy", _ranks, _as_list(v, "hierarchy")),
    "stopping": _stopping,
    "action": lambda v: _action(v)[0],
    "regularizer": lambda v: _regularizer(v)[0],
    "route": lambda v: v,  # checked by ``_route``, which parsing calls
    "sigmas": lambda v: _scan_widths(_as_list(v, "sigmas"), "sigmas"),
    "tolerance": lambda v: as_number("tolerance", v, 0.0),
    "truncation": lambda v: as_number("truncation", v, 0.0),
}

_REQUIRED = object()
_RUN = {"budget": _REQUIRED, "source": _REQUIRED, "stopping": {}}
_ESTIMATE = {**_RUN, "function": _REQUIRED, "policy": None, "route": None, "action": None,
             "regularizer": None}

# The keys each mode reads, each with the value it takes when a config
# leaves it out (``_REQUIRED``: none, the config must give it; ``None``:
# optional, with no default); a config may give no other key.
_READS = {
    "estimate": _ESTIMATE,
    "certify": {"budget": _REQUIRED, "source": _REQUIRED, "hierarchy": [1, 2, 3]},
    "oracle": {"function": _REQUIRED, "density": None, "action": None, "regularizer": None,
               "truncation": 8.0},
    "fresnel-scan": {**_RUN, "action": _REQUIRED, "sigmas": [1.0, 2.0, 4.0], "function": None,
                     "route": "pullback"},
    "compare": {**_ESTIMATE, "tolerance": 5e-3, "truncation": 8.0},
}
MODES = tuple(_READS)


def parse_config_dict(raw: dict, mode: str | None = None) -> ExperimentConfig:
    """Validate a decoded experiment description, whose top-level keys are
    keys its mode reads; a ``ValidationError`` names a bad field."""
    names = [f.name for f in fields(ExperimentConfig)]
    _require_keys(raw, set(names), "config")
    cfg_mode = raw.get("mode")
    if cfg_mode is not None and mode is not None and cfg_mode != mode:
        raise ValidationError("mode",
                              f"config says {cfg_mode!r} but the command requested {mode!r}")
    resolved_mode = cfg_mode or mode
    if resolved_mode not in MODES:
        raise ValidationError("mode", f"{resolved_mode!r} is not one of {list(MODES)}")
    reads = _READS[resolved_mode]
    for key in raw:
        if key != "mode" and key not in reads:
            raise ValidationError(key, f"not read by mode {resolved_mode!r}")

    settings = dict.fromkeys(names)
    settings["mode"] = resolved_mode
    for key, default in reads.items():
        if key in raw:
            settings[key] = _CHECKS[key](raw[key])
        elif default is _REQUIRED:
            raise ValidationError(key, "is required for this mode")
        elif default is not None:
            settings[key] = _CHECKS[key](default)
    if settings["truncation"] is not None and not _reads_truncation(settings):
        if "truncation" in raw:
            raise ValidationError("truncation", "is read only where the oracle's measure is "
                                  "unbounded: an action + regularizer, a route, or a pullback "
                                  "through 'normal' quantiles")
        settings["truncation"] = None
    config = ExperimentConfig(**settings)
    _check_across(config)
    return config


def _reads_truncation(settings: dict) -> bool:
    """Whether the oracle of an ``oracle`` or ``compare`` run integrates
    over an unbounded measure, whose domain it cuts at ``truncation``."""
    if settings["mode"] == "oracle":
        return settings["density"] is None
    source = settings["source"]
    return settings["route"] is not None or (
        source["kind"] == "pullback" and source["quantiles"]["family"] == "normal")


def _check_across(cfg: ExperimentConfig) -> None:
    """The rules that tie one key of a checked config to another."""
    if cfg.mode in ("estimate", "compare"):
        route_keys = (cfg.route, cfg.action, cfg.regularizer)
        if cfg.policy is not None and any(v is not None for v in route_keys):
            raise ValidationError("policy", "give either a policy or a route, not both")
        if cfg.policy is None and cfg.route is None:
            raise ValidationError(
                "policy", "either a policy or a route (action + regularizer) is required")
        for key in ("action", "regularizer"):
            if cfg.route is not None and getattr(cfg, key) is None:
                raise ValidationError(key, "is required when a route is set")
    if cfg.stopping is not None and cfg.budget < cfg.stopping["min_samples"]:
        raise ValidationError(
            "budget", f"{cfg.budget} is below stopping.min_samples {cfg.stopping['min_samples']}")
    # A route pulls the configured source back itself; fresnel-scan always routes.
    if (cfg.route is not None or cfg.mode == "certify") and cfg.source["kind"] == "pullback":
        what = "certify" if cfg.mode == "certify" else "a route"
        raise ValidationError("source.kind", f"{what} needs a unit-cube source, not 'pullback'")

    if cfg.mode == "oracle":
        pair = [v for v in (cfg.action, cfg.regularizer) if v is not None]
        if len(pair) != (0 if cfg.density is not None else 2):
            raise ValidationError(
                "density", "oracle mode needs a density, or an action plus a regularizer, not both")
    elif cfg.mode == "certify":
        _built("budget", _bins_per_rank, cfg.hierarchy, cfg.budget)
        rank = max(cfg.hierarchy)
    elif cfg.mode == "fresnel-scan":
        act = _action(cfg.action)[1]
        _scan_action(act)
        rank = max(0 if cfg.function is None else build_function(cfg.function, "function").rank, 1)
        # The scan's first route, built here so that its errors fail at parse.
        _route(_source(cfg.source)[1], act, normal_quantiles([cfg.sigmas[0]] * rank), rank,
               cfg.route)
    else:
        # The coordinates the run reads, which explicit alphas must cover.
        rank = mean_mod._rank(*_estimate_inputs(cfg)[1:])
    if cfg.source is not None:  # every mode but oracle
        _check_source(cfg.source, rank, cfg.route is not None)
    if cfg.mode in ("oracle", "compare"):
        _oracle_integrand(cfg, build_function(cfg.function, "function"))


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
    source, policy = _route(source, _action(config.action)[1], _regularizer(config.regularizer)[1],
                            func.rank, config.route)
    return source, policy, func


def _run_estimate(config: ExperimentConfig) -> tuple[int, dict, mean_mod.ConvergenceReport]:
    report = mean_mod.run(*_estimate_inputs(config), config.budget, config.stopping_rule())
    if report.degenerate:
        code = EXIT_DEGENERATE
    elif report.converged:
        code = EXIT_OK
    else:
        code = EXIT_NOT_CONVERGED
    result = {"final_estimate": _estimate_json(report.final_estimate),
              "converged": report.converged, "stop_reason": report.stop_reason,
              "N_used": report.N_used}
    return code, result, report


def _mode_estimate(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    code, result, report = _run_estimate(config)
    trace_path = outdir / "trace.csv"
    report.write_csv(trace_path)
    return code, result, {"trace_csv": str(trace_path)}


def _mode_certify(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    reports = hierarchy_certify(_source(config.source)[1], config.hierarchy, config.budget)
    all_pass = all(r.passed for r in reports)
    result = {
        "levels": [r.to_dict() for r in reports],
        "pass": all_pass,
        "significance": _SIGNIFICANCE,
    }
    return (EXIT_OK if all_pass else EXIT_CHECK_FAILED), result, {}


def _oracle_integrand(config: ExperimentConfig, func):
    """The quadrature oracle's density and box for an ``oracle`` or
    ``compare`` run: an oracle's ``density`` on the unit cube; else the
    regularizer and action's ``xi e^{-iS}`` on the regularizer measure's
    truncated domain, for an oracle or a compare route; else the source's
    sampling density times the policy's weights on the source's domain."""
    if config.density is not None:
        density = build_function(config.density, "density")
        rho, domain = density.eval_block, ((0.0, 1.0),) * max(density.rank, 1)
    elif config.regularizer is not None:
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
    # Only a truncation past the float range makes a box the oracle refuses.
    return rho, _built("truncation", _box, domain)


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
    rho, domain = _oracle_integrand(config, func)
    report = _run_estimate(config)[2]
    trace_path = outdir / "trace.csv"
    report.write_csv(trace_path)
    files = {"trace_csv": str(trace_path)}
    if report.degenerate:
        result = {"estimate": "degenerate", "oracle": None, "pass": False,
                  "tolerance": config.tolerance}
        return EXIT_DEGENERATE, result, files
    oracle_value, cells = normalized_expectation(func.eval_block, rho, domain)
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
        route=config.route,
        skip_certification=True,
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
        # A non-finite value is refused by the run or by ``_finite``; numpy's
        # warnings on the way there would print lines before that one error.
        with np.errstate(all="ignore"):
            return execute(parse_config_dict(_load(data), mode=args.command), args.out)
    except DiracMeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
