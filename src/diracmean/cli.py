"""Experiment driver: parse a JSON experiment description, wire the
source/policy/function, run, and emit a CSV trace plus a JSON summary.

``registry`` turns each config section into its object; this module owns
the modes, the keys each reads, the rules that tie one key to another,
the run and the output.  ``parse_config_dict`` builds each section once,
and ``execute`` runs the objects it built.

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
from .action import _MAX_QUADRATIC_RANK, _route, _scan_action, _scan_widths, fresnel_limit_scan
from .cylinder import _SIGNIFICANCE, _bins_per_rank, _ranks, hierarchy_certify
from .errors import DiracMeanError, ParseError, ValidationError, as_count, as_number
from .oracle import _box, gaussian_expectation, normalized_expectation
from .registry import _SECTIONS, _as_list, _built, _require_keys, _section
from .seq import _MAX_INDEX, UNIT_CUBE, normal_quantiles, uniform_quantiles
from .weights import product_regularized_policy

__all__ = ["ExperimentConfig", "parse_config_dict", "execute", "main"]

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
    and the oracle's first grid (4 cells per axis).  ``_parts``, set by
    ``parse_config_dict`` and not a field, holds the objects ``execute`` runs:
    each section's by key, the ``"run"`` inputs and the ``"oracle"``, a call
    returning the oracle's value and the cells per axis its quadrature used."""

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


def _check_source(spec: dict, rank: int, pulled_back: bool, budget: int) -> None:
    """Fail unless explicit Weyl ``alphas`` of the normalized source ``spec``
    (or its pullback's base) cover the ``rank`` coordinates a run reads, and
    a Halton or Weyl offset is at least 1 where the source is ``pulled_back``
    and keeps the last index of ``budget`` points within int64."""
    field = "source"
    if spec["kind"] == "pullback":  # whose base is a cube source
        spec, field, pulled_back = spec["base"], "source.base", True
    if "alphas" in spec and len(spec["alphas"]) < rank:
        raise ValidationError(f"{field}.alphas",
                              f"{len(spec['alphas'])} given but the run reads {rank} coordinates")
    if spec["kind"] not in ("halton", "weyl"):
        return
    if pulled_back and spec["offset"] == 0:
        raise ValidationError(f"{field}.offset", "must be at least 1 where the source is "
                              "pulled back through quantiles: its point 0 is the origin")
    if spec["offset"] + budget - 1 > _MAX_INDEX:
        raise ValidationError(f"{field}.offset",
                              f"{spec['offset']} moves index {budget - 1} past 2^63 - 1")


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
    if not isinstance(spec, dict):
        raise ValidationError("stopping", "expected an object with stopping-rule fields")
    stopping = asdict(mean_mod.StoppingRule())
    _require_keys(spec, set(stopping), "stopping")
    for name, value in spec.items():
        _built(f"stopping.{name}", mean_mod.StoppingRule, **{name: value})
    return dict(stopping, **spec)


# The check of each key that is not a section, returning what ``settings`` echoes.
_CHECKS = {
    "budget": lambda v: as_count("budget", v, 1),
    "hierarchy": lambda v: _built("hierarchy", _ranks, _as_list(v, "hierarchy")),
    "stopping": _stopping,
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
    parts = {}
    for key, default in reads.items():
        value = raw.get(key, default)
        if value is _REQUIRED:
            raise ValidationError(key, "is required for this mode")
        if value is None and key not in raw:
            continue
        if key in _SECTIONS:
            settings[key], parts[key] = _section(key, value, key)
        else:
            settings[key] = _CHECKS[key](value)
    if settings["truncation"] is not None and not _reads_truncation(settings):
        if "truncation" in raw:
            raise ValidationError("truncation", "is read only where the oracle's measure is "
                                  "unbounded: an action + regularizer, a route, or a pullback "
                                  "through 'normal' quantiles")
        settings["truncation"] = None
    config = ExperimentConfig(**settings)
    object.__setattr__(config, "_parts", parts)
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
    """The rules that tie one key of a checked config to another, read off its
    built sections; they build the run's inputs and the oracle."""
    parts = cfg._parts
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
    source = parts.get("source")
    if (cfg.route is not None or cfg.mode == "certify") and source.codomain != UNIT_CUBE:
        what = "certify" if cfg.mode == "certify" else "a route"
        raise ValidationError("source.kind",
                              f"{what} needs a {UNIT_CUBE} source, not {source.kind!r}")

    if cfg.mode == "oracle":
        pair = [v for v in (cfg.action, cfg.regularizer) if v is not None]
        if len(pair) != (0 if cfg.density is not None else 2):
            raise ValidationError(
                "density", "oracle mode needs a density, or an action plus a regularizer, not both")
    elif cfg.mode == "certify":
        _built("budget", _bins_per_rank, cfg.hierarchy, cfg.budget)
        rank = max(cfg.hierarchy)
    elif cfg.mode == "fresnel-scan":
        act = parts["action"]
        _scan_action(act)
        rank = max(parts["function"].rank if "function" in parts else 0, 1)
        # The scan's first route, built here so that its errors fail at parse.
        _route(source, act, normal_quantiles([cfg.sigmas[0]] * rank), rank, cfg.route)
    else:
        func = parts["function"]
        run = source, parts.get("policy"), func
        if cfg.route is not None:  # a route's source and policy, as oscillatory_mean's
            run = *_route(source, parts["action"], parts["regularizer"], func.rank, cfg.route), func
        parts["run"] = run
        # The coordinates the run reads, which explicit alphas must cover.
        rank = mean_mod._rank(*run[1:])
    if cfg.source is not None:  # every mode but oracle
        _check_source(cfg.source, rank, cfg.route is not None, cfg.budget)
    if cfg.mode in ("oracle", "compare"):
        parts["oracle"] = _oracle(cfg)


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
    report = mean_mod.run(*config._parts["run"], config.budget, config.stopping_rule())
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
    return code, result, {"trace_csv": trace_path.name}


def _mode_certify(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    reports = hierarchy_certify(config._parts["source"], config.hierarchy, config.budget)
    all_pass = all(r.passed for r in reports)
    result = {
        "levels": [r.to_dict() for r in reports],
        "pass": all_pass,
        "significance": _SIGNIFICANCE,
    }
    return (EXIT_OK if all_pass else EXIT_CHECK_FAILED), result, {}


def _oracle(config: ExperimentConfig):
    """The oracle of an ``oracle`` or ``compare`` run, a call returning its
    value and the cells per axis its quadrature used.  Its measure is an
    oracle's ``density`` on the unit cube; else the regularizer and
    action's ``xi e^{-iS}`` on the regularizer measure's domain, for an
    oracle or a compare route; else the source's sampling density times
    the policy's weights on the source's domain.  Where ``xi`` covers every
    coordinate of that complex Gaussian, at ranks up to the action's cap,
    and the function knows its Gaussian mean, the value is the closed form
    and the cells are ``None``; elsewhere the quadrature runs, at ranks 1 to
    3, on the domain cut at ``truncation``."""
    parts = config._parts
    func = parts["function"]
    closed_form = False
    if config.density is not None:
        density = parts["density"]
        rho, domain = density.eval_block, ((0.0, 1.0),) * max(density.rank, 1)
    elif config.regularizer is not None:
        reg, action = parts["regularizer"], parts["action"]
        pol = product_regularized_policy(reg, action)
        rank = max(pol.rank, func.rank if config.mode == "compare" else 0)
        rho = pol.weights
        domain = reg.domain(rank, config.truncation)
        closed_form = (func.gaussian_mean is not None
                       and rank == pol.covered <= _MAX_QUADRATIC_RANK)
    else:
        if config.policy.get("index_phase", 0.0) != 0.0:
            raise ValidationError("policy.index_phase",
                                  "index-dependent phases have no point density to compare against")
        source, policy, _ = parts["run"]
        if source.kind == "convergent":
            raise ValidationError("source", "compare mode needs an equidistributed source")
        family = source.quantiles if source.kind == "pullback" else uniform_quantiles()
        domain = family.domain(mean_mod._rank(policy, func), config.truncation)
        density, weights = family.density, policy.weights
        rho = weights if density is None else (lambda x: density(x) * weights(x))
    if func.rank > len(domain):
        raise ValidationError("function", f"rank {func.rank} exceeds the density rank {len(domain)}")
    # Only a truncation past the float range makes a box the quadrature
    # refuses; it cuts every axis alike, so the first axis tells.
    _built("truncation", _box, domain[:1])
    if closed_form:
        return lambda: (gaussian_expectation(func, action, reg), None)
    if len(domain) > 3:
        if config.mode == "oracle":
            raise ValidationError("density", "oracle mode supports ranks up to 3 where the "
                                  "closed form does not apply")
        raise ValidationError("function", "compare mode supports oracle ranks up to 3 where the "
                              "closed form does not apply")
    return lambda: normalized_expectation(func.eval_block, rho, domain)


def _mode_oracle(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    value, cells = config._parts["oracle"]()
    result = {
        "value_re": _finite(value.real),
        "value_im": _finite(value.imag),
        "cells_used": cells,
    }
    return EXIT_OK, result, {}


def _mode_compare(config: ExperimentConfig, outdir: Path) -> tuple[int, dict, dict]:
    report = _run_estimate(config)[2]
    trace_path = outdir / "trace.csv"
    report.write_csv(trace_path)
    files = {"trace_csv": trace_path.name}
    if report.degenerate:
        result = {"estimate": "degenerate", "oracle": None, "pass": False,
                  "tolerance": config.tolerance}
        return EXIT_DEGENERATE, result, files
    oracle_value, cells = config._parts["oracle"]()
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
    parts = config._parts
    scan = fresnel_limit_scan(
        parts["source"],
        parts["action"],
        config.sigmas,
        parts.get("function"),
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
    return EXIT_OK, {"scan": entries}, {"scan_csv": scan_path.name}


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
