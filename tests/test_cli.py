"""Experiment driver: parsing, validation, modes, exit codes, determinism."""

import contextlib
import copy
import csv
import hashlib
import importlib.util
import io
import json
import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmean import (
    StoppingRule,
    constant_policy,
    halton_source,
    normal_quantiles,
    oscillatory_mean,
    quadratic_action,
    run,
)
from diracmean import mean as mean_mod
from diracmean.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DEGENERATE,
    EXIT_ERROR,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    MODES,
    ExperimentConfig,
    _READS,
    _regularizer,
    _run_estimate,
    _source,
    main,
    parse_config_dict,
)
from diracmean.errors import ValidationError
from diracmean.registry import build_function

MINIMAL = {
    "mode": "estimate",
    "source": {"kind": "halton"},
    "policy": {"kind": "constant"},
    "function": {"name": "coordinate-product", "rank": 2},
    "budget": 100000,
}

DENSITY = {
    "mode": "estimate",
    "source": {"kind": "halton", "offset": 0},
    "policy": {"kind": "density", "function": {"name": "polynomial", "coeffs": [1.0, 1.0]}},
    "function": {"name": "coordinate", "index": 1},
    "budget": 100000,
}

ALTERNATING = {
    "mode": "estimate",
    "source": {"kind": "halton", "offset": 0},
    "policy": {"kind": "oscillatory", "action": {"matrix": [[0.0]]},
               "index_phase": math.pi},
    "function": {"name": "coordinate", "index": 1},
    "budget": 10000,
}

ROUTED = {"mode": "estimate", "source": {"kind": "halton", "offset": 1}, "route": "pullback",
          "action": {"matrix": [[1.0]]}, "regularizer": {"widths": [1.0]},
          "function": {"name": "coordinate", "index": 1}, "budget": 2000}


def run_cli(tmp_path, cfg, command=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    cmd = command or cfg["mode"]
    out = tmp_path / "out"
    code = main([cmd, "--config", str(path), "--out", str(out)])
    summary = None
    if (out / "summary.json").exists():
        summary = json.loads((out / "summary.json").read_text())
    return code, summary, out


# ---------------------------------------------------------------------------
# parsing


def test_minimal_config_fills_defaults():
    cfg = parse_config_dict(MINIMAL)
    assert cfg.stopping == {"window": 8, "rel_tol": 1e-4, "min_samples": 1000,
                            "degeneracy_threshold": 1e-8}
    assert cfg.hierarchy is None  # read only by certify
    assert cfg.source == {"kind": "halton", "offset": 0}


def test_unknown_policy_name_is_a_validation_error():
    bad = dict(MINIMAL, policy={"kind": "frenel"})
    with pytest.raises(ValidationError, match="policy"):
        parse_config_dict(bad)


def test_unknown_function_name_is_a_validation_error():
    bad = dict(MINIMAL, function={"name": "coordinate-prodct"})
    with pytest.raises(ValidationError, match="function"):
        parse_config_dict(bad)


def test_budget_below_min_samples_rejected():
    bad = dict(MINIMAL, budget=10)
    with pytest.raises(ValidationError, match="budget"):
        parse_config_dict(bad)


def test_malformed_json_is_a_parse_error_with_location(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert main(["estimate", "--config", str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON at line 1, column 2") and err.count("\n") == 1


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationError, match="unknown keys"):
        parse_config_dict(dict(MINIMAL, sigma=3))


def test_mode_mismatch_rejected():
    with pytest.raises(ValidationError, match="mode"):
        parse_config_dict(MINIMAL, mode="certify")


def test_unknown_mode_is_a_validation_error():
    with pytest.raises(ValidationError, match="^mode: 'bogus' is not one of"):
        parse_config_dict({"mode": "bogus"})


@pytest.mark.parametrize("text, field", [
    ('{"rel_tol": NaN}', "stopping.rel_tol"),
    ('{"rel_tol": Infinity}', "stopping.rel_tol"),
    ('{"window": 2.5}', "stopping.window"),
    ('{"window": true}', "stopping.window"),
    ('{"min_samples": 1000.0}', "stopping.min_samples"),
    ('{"degeneracy_threshold": NaN}', "stopping.degeneracy_threshold"),
])
def test_bad_stopping_values_name_the_field(text, field):
    config = json.dumps(MINIMAL)[:-1] + f', "stopping": {text}}}'
    with pytest.raises(ValidationError, match=f"^{field}: "):
        parse_config_dict(json.loads(config))


def test_route_and_policy_are_exclusive():
    bad = dict(MINIMAL, route="pullback",
               action={"matrix": [[1.0]]},
               regularizer={"family": "gaussian", "widths": [1.0]})
    with pytest.raises(ValidationError, match="policy"):
        parse_config_dict(bad)


def test_config_round_trip_through_echo():
    for raw in (MINIMAL, DENSITY, ALTERNATING, ROUTED, NORMAL_PULLBACK, CERTIFY, ORACLE, SCAN):
        cfg = parse_config_dict(dict(raw))
        echoed = json.loads(json.dumps(cfg.to_dict()))
        assert set(echoed) <= READS[cfg.mode] | {"mode"}
        assert parse_config_dict(echoed) == cfg


# The keys each mode reads; the config of a mode may give no other.
READS = {
    "estimate": {"budget", "source", "stopping", "function", "policy", "route", "action",
                 "regularizer"},
    "certify": {"budget", "source", "hierarchy"},
    "oracle": {"function", "density", "action", "regularizer", "truncation"},
    "fresnel-scan": {"budget", "source", "stopping", "action", "sigmas", "function", "route"},
}
READS["compare"] = READS["estimate"] | {"tolerance", "truncation"}

def test_readme_key_table_is_what_each_mode_reads():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header, _, *lines = text[text.index("| key |"):].split("\n\n")[0].splitlines()
    modes = [cell.strip() for cell in header.strip("|").split("|")][1:]
    assert sorted(modes) == sorted(_READS)
    table = {}
    for line in lines:
        key, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        table[key.strip("`")] = dict(zip(modes, cells, strict=True))
    assert set(table) == set().union(*_READS.values())
    for key, cells in table.items():
        for mode, cell in cells.items():
            assert (cell == "-") == (key not in _READS[mode]), (key, mode, cell)


# A valid value of each key, not its default.
KEY_VALUES = {
    "budget": 4000, "source": {"kind": "halton", "offset": 2}, "policy": {"kind": "constant"},
    "function": {"name": "coordinate", "index": 1},
    "density": {"name": "coordinate-product", "rank": 1}, "hierarchy": [2],
    "stopping": {"rel_tol": 1e-3}, "action": {"matrix": [[2.0]]},
    "regularizer": {"widths": [0.5]}, "route": "weight-borne",
    "sigmas": [1.0, 3.0], "tolerance": 0.5, "truncation": 6.0,
}
# Keys of settings the library fixes: the weight-borne box is 8x the widest
# regularizer width, the oracle's cell doubling starts at 4, the certificate
# plans its own bins at level 0.999, and a run sums blocks of 4096 points.
DELETED_KEYS = {"box_half_width": 6.0, "cells_per_axis": 8, "bins_per_axis": [4, 4, 4],
                "significance": 0.99, "block_size": 512}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)] + list(DELETED_KEYS))
def test_each_key_is_read_or_rejected(mode, key):
    base = {"estimate": dict(ROUTED, route="weight-borne"),
            "compare": dict(ROUTED, mode="compare", route="weight-borne"),
            "certify": CERTIFY, "fresnel-scan": SCAN,
            "oracle": {"mode": "oracle", "function": {"name": "coordinate", "index": 1},
                       "action": {"matrix": [[1.0]]}, "regularizer": {"widths": [1.0]}}}[mode]
    reads = READS[mode] | {"mode"}
    if key in DELETED_KEYS:
        with pytest.raises(ValidationError, match=rf"^config: unknown keys \['{key}'\]"):
            parse_config_dict(dict(base, **{key: DELETED_KEYS[key]}))
        return
    try:
        cfg = parse_config_dict(dict(base, **{key: mode if key == "mode" else KEY_VALUES[key]}))
    except ValidationError as exc:
        # A key the mode reads may still break a rule that ties it to another.
        assert exc.field == key
        assert (exc.message == f"not read by mode {mode!r}") == (key not in reads)
    else:
        assert key in reads and key in cfg.to_dict()


def _bench_workloads():
    """``bench/workloads.py``, which imports nothing of this package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 7, 19])
def test_benchmark_cli_configs_parse(seed):
    workloads = _bench_workloads()
    jobs = [job for name in workloads.WORKLOADS for job in workloads.build_jobs(name, seed)
            if job["api"] == "cli"]
    assert jobs
    for job in jobs:
        parse_config_dict(json.loads(json.dumps(job["config"])), mode=job["mode"])


# ---------------------------------------------------------------------------
# execution and exit codes


def test_estimate_density_example(tmp_path):
    code, summary, out = run_cli(tmp_path, DENSITY)
    assert code == EXIT_OK
    est = summary["result"]["final_estimate"]
    assert abs(est["re"] - 5.0 / 9.0) <= 2e-3
    assert est["im"] == 0.0
    rows = list(csv.reader((out / "trace.csv").read_text().splitlines()))
    assert rows[0] == ["m", "re_num", "im_num", "re_den", "im_den",
                       "re_est", "im_est", "den_ratio", "spread", "tolerance"]
    assert len(rows) > 2


def test_estimate_alternating_phase_exits_degenerate(tmp_path):
    code, summary, out = run_cli(tmp_path, ALTERNATING)
    assert code == EXIT_DEGENERATE
    assert summary["result"]["final_estimate"] == "degenerate"
    for row in list(csv.reader((out / "trace.csv").read_text().splitlines()))[1:]:
        for cell in row:
            if cell:
                assert math.isfinite(float(cell))


def test_estimate_non_convergence_exits_3(tmp_path):
    cfg = dict(DENSITY, budget=2000,
               stopping={"rel_tol": 1e-12, "min_samples": 1000})
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_NOT_CONVERGED
    assert summary["result"]["stop_reason"] == "budget-exhausted"


def _stop_from_trace_csv(path):
    """The stop reason as ``trace.csv`` alone tells it, from its last row."""
    header, *rows = csv.reader(path.read_text().splitlines())
    last = dict(zip(header, rows[-1]))
    if last["re_est"] == "":
        return "degenerate"
    if last["spread"] and float(last["spread"]) <= float(last["tolerance"]):
        return "window-cauchy"
    return "budget-exhausted"


@pytest.mark.parametrize("cfg, code", [
    (DENSITY, EXIT_OK),
    (dict(DENSITY, budget=2000, stopping={"rel_tol": 1e-12}), EXIT_NOT_CONVERGED),
    (ALTERNATING, EXIT_DEGENERATE),
], ids=["converged", "not-converged", "degenerate"])
def test_trace_csv_has_a_row_per_reached_checkpoint_and_tells_the_stop(tmp_path, cfg, code):
    got, summary, out = run_cli(tmp_path, cfg)
    assert got == code
    result = summary["result"]
    rule = StoppingRule(**summary["settings"]["stopping"])
    reached = [m for m in mean_mod._checkpoints(cfg["budget"], rule) if m < result["N_used"]]
    rows = list(csv.reader((out / "trace.csv").read_text().splitlines()))[1:]
    assert [int(row[0]) for row in rows] == reached + [result["N_used"]]
    assert _stop_from_trace_csv(out / "trace.csv") == result["stop_reason"]


def test_estimate_result_is_the_run_report(tmp_path):
    cfg = dict(MINIMAL, function={"name": "coordinate", "index": 1}, budget=2000,
               stopping={"min_samples": 2000})
    code, summary, _ = run_cli(tmp_path, cfg)
    report = run(halton_source(0), constant_policy(), build_function(cfg["function"]), 2000,
                 StoppingRule(min_samples=2000))
    assert code == EXIT_NOT_CONVERGED
    assert summary["result"] == {
        "final_estimate": {"re": report.final_estimate.real, "im": report.final_estimate.imag},
        "converged": False, "stop_reason": "budget-exhausted", "N_used": 2000}


def test_certify_constant_source_fails(tmp_path):
    cfg = {"mode": "certify", "budget": 10000,
           "source": {"kind": "convergent", "target": 0.3, "rate": 0.5, "offset": 0.0}}
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_CHECK_FAILED
    assert summary["result"]["pass"] is False


def test_certify_halton_passes(tmp_path):
    cfg = {"mode": "certify", "budget": 10000, "source": {"kind": "halton"}}
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    assert [level["rank"] for level in summary["result"]["levels"]] == [1, 2, 3]
    assert summary["result"]["pass"] is True


def test_oracle_mode_reports_value_and_cells(tmp_path):
    cfg = {"mode": "oracle",
           "function": {"name": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
           "action": {"matrix": [[1.0]]},
           "regularizer": {"family": "gaussian", "widths": [1.0]}}
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    r = summary["result"]
    assert abs(complex(r["value_re"], r["value_im"]) - (0.5 - 0.5j)) <= 1e-8
    assert r["cells_used"] >= 8


def test_oracle_mode_plain_density(tmp_path):
    cfg = {"mode": "oracle",
           "function": {"name": "coordinate", "index": 1},
           "density": {"name": "polynomial", "coeffs": [1.0, 1.0]}}
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    assert abs(summary["result"]["value_re"] - 5.0 / 9.0) <= 1e-9


def test_compare_mode_density_passes(tmp_path):
    cfg = dict(DENSITY, mode="compare", tolerance=5e-3, budget=20000,
               stopping={"min_samples": 20000})
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    assert summary["result"]["pass"] is True
    assert summary["result"]["abs_error"] <= 5e-3


def test_compare_mode_fails_on_tight_tolerance(tmp_path):
    cfg = dict(DENSITY, mode="compare", tolerance=1e-12, budget=20000,
               stopping={"min_samples": 20000})
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_CHECK_FAILED
    assert summary["result"]["pass"] is False


def test_compare_mode_fresnel_route(tmp_path):
    cfg = {"mode": "compare",
           "source": {"kind": "halton", "offset": 1},
           "route": "pullback",
           "action": {"matrix": [[1.0]]},
           "regularizer": {"family": "gaussian", "widths": [1.0]},
           "function": {"name": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
           "budget": 100000, "stopping": {"min_samples": 100000},
           "tolerance": 5e-3}
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    assert summary["result"]["pass"] is True


def test_compare_mode_rank3_writes_a_valid_summary(tmp_path):
    cfg = {"mode": "compare",
           "source": {"kind": "halton", "offset": 1},
           "route": "pullback",
           "action": {"matrix": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 2.0]]},
           "regularizer": {"family": "gaussian", "widths": [0.5, 0.5, 0.5]},
           "function": {"name": "polynomial", "coeffs": [0.0, 0.0, 1.0], "index": 3},
           "truncation": 6.0,
           "budget": 20000, "stopping": {"min_samples": 20000},
           "tolerance": 5e-3}
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    assert summary["result"]["pass"] is True
    assert abs(summary["result"]["oracle"]["re"] - 0.2) <= 1e-6  # M^-1 = 0.25/(1+0.5i)


def test_compare_mode_rejects_index_dependent_phases(tmp_path):
    policy = {"kind": "oscillatory", "action": {"matrix": [[0.0]]}, "index_phase": 0.5}
    cfg = dict(ALTERNATING, mode="compare", policy=policy, tolerance=1e-2, budget=10000)
    code, _, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_ERROR


def test_compare_mode_degenerate_estimate_has_no_oracle(tmp_path):
    policy = {"kind": "density", "function": {"name": "polynomial", "coeffs": [0.0]}}
    code, summary, out = run_cli(tmp_path, dict(DENSITY, mode="compare", policy=policy,
                                                budget=2000))
    assert code == EXIT_DEGENERATE
    assert summary["result"]["estimate"] == "degenerate"
    assert summary["result"]["oracle"] is None and summary["result"]["pass"] is False
    assert (out / "trace.csv").exists()


def test_fresnel_scan_degenerate_width_writes_an_empty_estimate(tmp_path):
    # |E[e^{-i x^2 / 2}]| = 2^{-1/4} < 0.9 under the unit normal.
    cfg = dict(SCAN, stopping={"degeneracy_threshold": 0.9})
    code, summary, out = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    rows = list(csv.reader((out / "scan.csv").read_text().splitlines()))
    assert rows[1][:3] == ["1.0", "", ""] and rows[1][4] == "degenerate"
    assert summary["result"]["scan"][0]["estimate"] == "degenerate"


def test_fresnel_scan_mode_writes_csv(tmp_path):
    cfg = {"mode": "fresnel-scan",
           "source": {"kind": "halton", "offset": 1},
           "action": {"matrix": [[1.0]]},
           "sigmas": [1.0, 2.0],
           "budget": 50000, "stopping": {"min_samples": 50000}}
    code, summary, out = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    rows = list(csv.reader((out / "scan.csv").read_text().splitlines()))
    assert rows[0][0] == "sigma"
    assert len(rows) == 3
    assert [e["sigma"] for e in summary["result"]["scan"]] == [1.0, 2.0]


def test_identical_runs_are_byte_identical(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DENSITY))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["estimate", "--config", str(path), "--out", str(out1)]) == EXIT_OK
    assert main(["estimate", "--config", str(path), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()



def test_seed_flag_overrides_pseudorandom_source(tmp_path):
    # The seed is the file's `source.seed`.
    outs = []
    for seed in (7, 8):
        cfg = dict(MINIMAL, source={"kind": "pseudorandom", "seed": seed}, budget=5000)
        (tmp_path / str(seed)).mkdir()
        _, summary, _ = run_cli(tmp_path / str(seed), cfg)
        assert summary["settings"]["source"]["seed"] == seed
        outs.append(summary["result"]["final_estimate"]["re"])
    assert outs[0] != outs[1]


def test_out_defaults_to_the_working_directory(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(MINIMAL, budget=2000, stopping={"min_samples": 2000})))
    monkeypatch.chdir(tmp_path)
    assert main(["estimate", "--config", str(path)]) == EXIT_NOT_CONVERGED
    assert (tmp_path / "summary.json").exists() and (tmp_path / "trace.csv").exists()


def test_missing_config_file_is_exit_1(tmp_path):
    assert main(["estimate", "--config", str(tmp_path / "nope.json")]) == EXIT_ERROR


@pytest.mark.parametrize("argv, message", [
    (["estimate"], "the following arguments are required: --config"),
    (["estimate", "--config", "c.json", "--budget", "5"], "unrecognized arguments: --budget 5"),
    (["estimate", "--config", "c.json", "--seed", "3"], "unrecognized arguments: --seed 3"),
    ([], "the following arguments are required: command"),
    (["estmate", "--config", "c.json"], "invalid choice: 'estmate'"),
], ids=["no-config", "budget-flag", "seed-flag", "no-subcommand", "unknown-subcommand"])
def test_usage_error_is_exit_1_with_one_error_line(capsys, argv, message):
    # Exit 2 is reserved for a degenerate normalization.
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{\x00}\x00", "error: the experiment description is not UTF-8: "),
    (b"[" * 200000 + b"]" * 200000, "error: invalid JSON: nested too deeply"),
    (b'{"budget": ' + b"9" * 5000 + b"}", "error: invalid JSON: Exceeds the limit"),
    (b"[1, 2]", "error: the experiment description must be a JSON object"),
], ids=["utf16-bom", "nested-200000-deep", "integer-of-5000-digits", "json-array"])
def test_undecodable_config_is_one_error_line(tmp_path, capsys, data, message):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# compare oracles for pullback sources

NORMAL_PULLBACK = {
    "mode": "compare",
    "source": {"kind": "pullback", "base": {"kind": "halton", "offset": 1},
               "quantiles": {"family": "normal", "widths": [1.0, 0.5]}},
    "policy": {"kind": "constant"},
    "function": {"name": "polynomial", "coeffs": [0.0, 0.0, 1.0], "index": 2},
    "budget": 20000, "stopping": {"min_samples": 20000}, "tolerance": 5e-3,
}


def test_compare_mode_normal_pullback(tmp_path):
    code, summary, _ = run_cli(tmp_path, NORMAL_PULLBACK)
    assert code == EXIT_OK
    r = summary["result"]
    assert abs(complex(r["estimate"]["re"], r["estimate"]["im"]) - 0.25) <= 5e-3
    assert abs(complex(r["oracle"]["re"], r["oracle"]["im"]) - 0.25) <= 1e-9


def test_compare_mode_box_pullback_with_unequal_widths(tmp_path):
    cfg = dict(NORMAL_PULLBACK,
               source={"kind": "pullback", "base": {"kind": "halton", "offset": 1},
                       "quantiles": {"family": "uniform-box", "widths": [1.0, 2.0]}},
               function={"name": "polynomial", "coeffs": [0.0, 0.0, 1.0]})
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    assert abs(summary["result"]["oracle"]["re"] - 1.0 / 3.0) <= 1e-9  # x1 uniform on [-1, 1]


def test_pullback_settings_echo_normalized_quantiles():
    for quantiles, echo in [
        (None, {"family": "normal", "widths": [1.0]}),
        ({"family": "uniform-box", "widths": 2}, {"family": "uniform-box", "widths": [2.0]}),
        ({"family": "uniform"}, {"family": "uniform"}),
    ]:
        source = {"kind": "pullback", "base": {"kind": "halton", "offset": 1}}
        if quantiles is not None:
            source["quantiles"] = quantiles
        cfg = parse_config_dict(dict(NORMAL_PULLBACK, source=source))
        assert cfg.to_dict()["source"]["quantiles"] == echo


# The three config fields that build a normal family, each with a config
# around it and the family's density built from that config.
WIDTHS_FIELDS = {
    "regularizer.widths": (lambda w: dict(ROUTED, regularizer={"widths": w}),
                           lambda cfg: _regularizer(cfg["regularizer"])[1].density),
    "source.quantiles.widths": (
        lambda w: dict(NORMAL_PULLBACK, source={"kind": "pullback",
                                                "base": {"kind": "halton", "offset": 1},
                                                "quantiles": {"family": "normal", "widths": w}}),
        lambda cfg: _source(cfg["source"])[1].quantiles.density),
    "function.widths": (lambda w: dict(MINIMAL, function={"name": "gaussian", "widths": w}),
                        lambda cfg: build_function(cfg["function"]).eval_block),
}


@pytest.mark.parametrize("field", WIDTHS_FIELDS)
def test_widths_take_a_number_or_a_list_in_every_field(field):
    make, density = WIDTHS_FIELDS[field]
    pts = halton_source(1).block(0, 1000, 2)
    values = []
    for widths in (2.0, [2.0]):
        parse_config_dict(make(widths))
        values.append(density(make(widths))(pts).tobytes())
    assert values[0] == values[1]
    for bad in ([], "2", [0.0], [math.nan]):
        with pytest.raises(ValidationError, match=f"^{re.escape(field)}: "):
            parse_config_dict(make(bad))


# ---------------------------------------------------------------------------
# a route run through the CLI is oscillatory_mean's run, bit for bit


@pytest.mark.parametrize("route", ["pullback", "weight-borne"])
@pytest.mark.parametrize("extra", [
    {"regularizer": {"widths": [1.0, 0.7]}},
], ids=["regularizer-wider-than-action"])
def test_cli_route_run_is_oscillatory_mean_bit_for_bit(route, extra):
    cfg = dict(ROUTED, route=route, function={"name": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
               budget=20000, **extra)
    config = parse_config_dict(cfg)
    reg = config.regularizer["widths"]
    direct = oscillatory_mean(
        halton_source(1), quadratic_action([[1.0]]), normal_quantiles(reg),
        build_function(cfg["function"]), config.budget, config.stopping_rule(), route=route,
        skip_certification=True)

    def fingerprint(report):
        est = report.final_estimate
        rows = hashlib.sha256(repr(report.trace_rows()).encode()).hexdigest()
        return est.real.hex(), est.imag.hex(), report.N_used, report.stop_reason, rows

    assert fingerprint(_run_estimate(config)[2]) == fingerprint(direct)


# ---------------------------------------------------------------------------
# malformed configs fail at parse, as one line naming the field

SCAN = {"mode": "fresnel-scan", "source": {"kind": "halton", "offset": 1},
        "action": {"matrix": [[1.0]]}, "sigmas": [1.0, 2.0], "budget": 2000}
CERTIFY = {"mode": "certify", "budget": 10000, "source": {"kind": "halton"}}
ALPHA = "0.4142135623730951"
ORACLE = {"mode": "oracle", "function": {"name": "coordinate", "index": 1},
          "density": {"name": "coordinate-product", "rank": 1}}


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


@pytest.mark.parametrize("cfg, field", [
    (dict(MINIMAL, source={"kind": "pullback", "base": {
        "kind": "pullback", "base": {"kind": "halton", "offset": 1}}}), "source.base"),
    (dict(MINIMAL, source={"kind": "weyl", "alphas": ["abc"]}), "source.alphas"),
    (dict(MINIMAL, source={"kind": "weyl", "alphas": "0.4142135623730951"}), "source.alphas"),
    (dict(MINIMAL, source={"kind": "weyl", "alphas": ["0.25", "0.5"]}), "source.alphas"),
    (dict(CERTIFY, hierarchy=2), "hierarchy"),
    (dict(CERTIFY, hierarchy=[]), "hierarchy"),
    (dict(SCAN, sigmas=2.0), "sigmas"),
    (dict(SCAN, sigmas=[]), "sigmas"),
    (dict(SCAN, action={"matrix": [[1.0, 0.0], [0.0, 1.0]]}), "action"),
    (dict(SCAN, action={"matrix": [[0.0]]}), "action"),
    (dict(ORACLE, density={"name": "coordinate-product", "rank": 4}), "density"),
    (dict(MINIMAL, source={"kind": "weyl", "alphas": [ALPHA]}), "source.alphas"),
    (dict(MINIMAL, source={"kind": "pullback", "base": {"kind": "weyl", "alphas": [ALPHA]}}),
     "source.base.alphas"),
    (dict(CERTIFY, source={"kind": "weyl", "alphas": [ALPHA]}, hierarchy=[1, 2]),
     "source.alphas"),
    ({"mode": "estimate", "source": {"kind": "halton"}, "route": "pullback",
      "action": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, "regularizer": {"widths": [1.0]},
      "function": {"name": "coordinate", "index": 1}, "budget": 2000}, "regularizer"),
    # The oracle integrand's own checks, built at parse too.
    (dict(ALTERNATING, mode="compare", tolerance=1e-2, policy={
        "kind": "oscillatory", "action": {"matrix": [[0.0]]}, "index_phase": 0.5}),
     "policy.index_phase"),
    (dict(DENSITY, mode="compare", source={"kind": "convergent", "target": 0.3, "rate": 0.5}),
     "source"),
    (dict(DENSITY, source={"kind": "convergent", "target": [0.3, "x"], "rate": 0.5}),
     "source.target"),
    (dict(DENSITY, source={"kind": "convergent", "target": 0.3, "rate": 0.5, "offset": []}),
     "source.offset"),
    (dict(SCAN, action={"matrix": [["x"]]}), "action"),
    (dict(MINIMAL, mode="compare", function={"name": "coordinate-product", "rank": 4}),
     "function"),
    (dict(ORACLE, function={"name": "coordinate", "index": 2}), "function"),
    (dict(SCAN, action={"kind": "cubic", "matrix": [[1.0]]}), "action.kind"),
    (dict(SCAN, action={}), "action.matrix"),
    (_without(MINIMAL, "source"), "source"),
    (_without(MINIMAL, "policy"), "policy"),
    (_without(ROUTED, "regularizer"), "regularizer"),
    (_without(ORACLE, "density"), "density"),
    (_without(SCAN, "action"), "action"),
    (dict(SCAN, sigmas=[2.0, 1.0]), "sigmas"),
    # The output directory is the command's `--out`, not a config key.
    (dict(MINIMAL, out="results"), "config"),
    (dict(MINIMAL, function={"name": "polynomial", "coeffs": []}), "function.coeffs"),
    (dict(MINIMAL, function={"name": "quadratic-form"}), "function.matrix"),
    # A weight-borne route reads every regularizer width.
    (dict(ROUTED, source={"kind": "weyl", "alphas": [ALPHA], "offset": 1}, route="weight-borne",
          regularizer={"widths": [1.0, 1.0]}), "source.alphas"),
    (dict(NORMAL_PULLBACK, source={"kind": "pullback", "base": {"kind": "halton", "offset": 1},
                                   "quantiles": {"family": "normal", "widht": 3.0}}),
     "source.quantiles"),
    (dict(NORMAL_PULLBACK, source={"kind": "pullback", "base": {"kind": "halton", "offset": 1},
                                   "quantiles": {"family": "uniform", "widths": "abc"}}),
     "source.quantiles"),
    (dict(NORMAL_PULLBACK, source={"kind": "pullback", "base": {"kind": "halton", "offset": 1},
                                   "quantiles": {"family": "normal", "widths": "abc"}}),
     "source.quantiles.widths"),
    (dict(NORMAL_PULLBACK, source={"kind": "pullback", "base": {"kind": "halton", "offset": 1},
                                   "quantiles": {"family": "cauchy"}}),
     "source.quantiles.family"),
    # Point 0 of a Halton or Weyl source is the origin, where quantiles are infinite.
    (dict(ROUTED, source={"kind": "halton"}), "source.offset"),
    (dict(ROUTED, source={"kind": "weyl"}, route="weight-borne"), "source.offset"),
    (dict(SCAN, source={"kind": "halton"}), "source.offset"),
    (dict(NORMAL_PULLBACK, source={"kind": "pullback", "base": {"kind": "weyl"}}),
     "source.base.offset"),
    (dict(ROUTED, source={"kind": "pullback", "base": {"kind": "halton", "offset": 1}}),
     "source.kind"),
    # The certificate's own checks: a unit-cube source, >= 5 expected counts per cell.
    (dict(CERTIFY, source={"kind": "pullback", "base": {"kind": "halton", "offset": 1}}),
     "source.kind"),
    (dict(CERTIFY, budget=10), "budget"),
    # A Weyl source takes its kind, alphas and offset, and no other key.
    (dict(MINIMAL, source={"kind": "weyl", "offset": 1, "bits": 256}), "source"),
    # A function entry takes only the keys its builder reads.
    (dict(MINIMAL, function={"name": "coordinate", "idx": 5}), "function"),
    (dict(MINIMAL, function={"name": "cosine", "index": 2, "freq": 3.0}), "function"),
    (dict(MINIMAL, function={"name": "gaussian", "width": [2.0]}), "function"),
    (dict(MINIMAL, function={"name": "coordinate-product", "rnak": 4}), "function"),
    (dict(ORACLE, density={"name": "coordinate", "index": 1, "rank": 1}), "density"),
    (dict(MINIMAL, policy={"kind": "density", "function": {"name": "polynomial",
                                                           "coeffs": [1.0], "idx": 1}}),
     "policy.function"),
    # A config gives only the keys its mode reads.
    (dict(SCAN, regularizer={"widths": [5.0]}), "regularizer"),
    (dict(ORACLE, budget=1000), "budget"),
    (dict(MINIMAL, action={"matrix": [[1.0]]}), "policy"),
    (dict(ORACLE, action={"matrix": [[1.0]]}, regularizer={"widths": [1.0]}), "density"),
    (dict(ROUTED, route="sideways"), "route"),
    # Settings that are no longer configurable.
    (dict(ROUTED, route="weight-borne", box_half_width=6.0), "config"),
    (dict(ORACLE, cells_per_axis=8), "config"),
    (dict(MINIMAL, significance=0.99), "config"),
    (dict(MINIMAL, policy={"kind": "fresnel", "action": {"matrix": [[1.0]]},
                           "regularizer": {"widths": [1.0]}}), "policy.kind"),
    # A box past the float range, which the oracle would refuse.
    (dict(ROUTED, mode="compare", truncation=1e308, regularizer={"widths": [10.0]}),
     "truncation"),
    # `truncation` cuts only an unbounded oracle measure.
    (dict(ORACLE, density={"name": "polynomial", "coeffs": [1.0, 1.0]}, truncation=0.5),
     "truncation"),
    (dict(DENSITY, mode="compare", truncation=8.0), "truncation"),
    (dict(NORMAL_PULLBACK, source={"kind": "pullback", "base": {"kind": "halton", "offset": 1},
                                   "quantiles": {"family": "uniform-box", "widths": [1.0, 0.5]}},
          truncation=0.5), "truncation"),
    # Below 2^-40 a weight sum can be rounding noise.
    (dict(MINIMAL, stopping={"degeneracy_threshold": 1e-200}), "stopping.degeneracy_threshold"),
], ids=["pullback-of-pullback", "alpha-not-a-number", "alphas-scalar", "alphas-rational",
        "hierarchy-scalar", "hierarchy-empty", "sigmas-scalar", "sigmas-empty",
        "scan-rank-2", "scan-zero-curvature", "oracle-rank-4", "alphas-short-of-function-rank",
        "base-alphas-short-of-function-rank",
        "alphas-short-of-hierarchy", "route-widths-short-of-action-rank",
        "compare-index-phase", "compare-convergent-source", "convergent-target",
        "convergent-offset", "scan-matrix-not-numbers", "compare-rank-4",
        "oracle-function-above-density-rank", "action-kind", "action-without-matrix",
        "no-source", "neither-policy-nor-route", "route-without-regularizer",
        "oracle-without-density", "scan-without-action",
        "sigmas-decreasing", "out-key", "polynomial-without-coeffs",
        "quadratic-form-without-matrix", "weight-borne-alphas-short-of-regularizer-rank",
        "quantiles-unknown-key", "uniform-quantiles-with-widths", "quantile-widths-not-numbers",
        "quantile-family-unknown", "route-over-halton-offset-0", "route-over-weyl-offset-0",
        "scan-over-halton-offset-0", "pullback-over-weyl-offset-0", "route-over-pullback",
        "certify-pullback", "certify-budget-below-bins",
        "weyl-unknown-key", "coordinate-idx", "cosine-freq", "gaussian-width",
        "coordinate-product-rnak", "density-unknown-key", "policy-function-unknown-key",
        "scan-regularizer", "oracle-budget", "policy-and-action",
        "oracle-density-and-action", "route-unknown", "route-box-half-width",
        "oracle-cells-per-axis", "estimate-significance", "policy-fresnel", "compare-truncation-past-float-range",
        "oracle-density-truncation", "compare-cube-truncation",
        "compare-uniform-box-truncation", "stopping-threshold-below-the-floor"])
def test_malformed_config_is_one_error_line_naming_the_field(tmp_path, capsys, cfg, field):
    with pytest.raises(ValidationError, match=f"^{re.escape(field)}: "):
        parse_config_dict(cfg)
    code, summary, out = run_cli(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert summary is None and not out.exists()
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_policy_kinds_are_listed_where_a_kind_is_unknown():
    # Weights xi e^{-iS} are the weight-borne route, not a policy kind.
    with pytest.raises(ValidationError) as exc:
        parse_config_dict(dict(MINIMAL, policy={"kind": "fresnel", "action": {"matrix": [[1.0]]}}))
    assert str(exc.value) == ("policy.kind: 'fresnel' is not one of "
                              "['constant', 'density', 'boltzmann', 'oscillatory']")


def test_truncation_is_echoed_only_where_read():
    # Read by an oracle over an unbounded measure: a regularizer's or a normal pullback's.
    gaussian = {"mode": "oracle", "function": {"name": "coordinate", "index": 1},
                "action": {"matrix": [[1.0]]}, "regularizer": {"widths": [1.0]}}
    for cfg in (gaussian, dict(ROUTED, mode="compare"), NORMAL_PULLBACK):
        assert parse_config_dict(cfg).to_dict()["truncation"] == 8.0
        assert parse_config_dict(dict(cfg, truncation=0.5)).truncation == 0.5
    for cfg in (ORACLE, dict(DENSITY, mode="compare")):
        assert "truncation" not in parse_config_dict(cfg).to_dict()


def test_uncreatable_output_directory_is_one_error_line(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CERTIFY))
    code = main(["certify", "--config", str(path), "--out", str(tmp_path / "afile" / "sub")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("params, field", [
    ({"name": "coordinate", "index": 1.7}, "function.index"),
    ({"name": "coordinate", "index": True}, "function.index"),
    ({"name": "coordinate", "index": "2"}, "function.index"),
    ({"name": "coordinate", "index": 0}, "function.index"),
    ({"name": "coordinate-product", "rank": 2.9}, "function.rank"),
    ({"name": "cosine", "index": 2.0}, "function.index"),
    ({"name": "polynomial", "coeffs": [1.0], "index": 1.5}, "function.index"),
])
def test_registry_rejects_non_integer_parameters(params, field):
    with pytest.raises(ValidationError, match=f"^{field}: "):
        parse_config_dict(dict(MINIMAL, function=params))


@pytest.mark.parametrize("cfg, field", [
    (dict(SCAN, sigmas=[1.0, 10**400]), "sigmas"),
    (dict(MINIMAL, stopping={"rel_tol": -(10**400)}), "stopping.rel_tol"),
], ids=["sigmas", "rel_tol"])
def test_integer_beyond_the_float_range_is_one_error_line(tmp_path, capsys, cfg, field):
    code, summary, _ = run_cli(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == EXIT_ERROR and summary is None
    assert err.startswith(f"error: {field}: must be a finite number") and err.count("\n") == 1


@pytest.mark.parametrize("cfg, message", [
    (dict(SCAN, sigmas=[1e200]), "non-finite weight in block"),
    (dict(MINIMAL, function={"name": "polynomial", "coeffs": [1e308, 1e308]}),
     "non-finite function value in block"),
], ids=["scan-width-1e200", "polynomial-overflow"])
def test_non_finite_run_value_is_one_error_line(tmp_path, capsys, cfg, message):
    # The run refuses the value; numpy's overflow warnings print nothing first.
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_ERROR and summary is None
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# config fuzzing: one field of a valid config replaced by a wrong-typed value

FUZZ_BASES = [
    dict(MINIMAL, budget=2000),
    dict(DENSITY, budget=2000),
    ALTERNATING,
    dict(NORMAL_PULLBACK, budget=2000, stopping={"min_samples": 2000}),
    dict(SCAN, route="weight-borne", function={"name": "coordinate", "index": 1},
         stopping={"min_samples": 1000}),
    dict(CERTIFY, budget=2000, source={"kind": "weyl", "alphas": ["0.4142135623730951"]},
         hierarchy=[1]),
    {"mode": "estimate", "source": {"kind": "convergent", "target": [0.3], "rate": 0.5},
     "route": "weight-borne", "action": {"matrix": [[1.0]], "linear": [0.5]},
     "regularizer": {"widths": [1.0]},
     "function": {"name": "cosine", "index": 1, "frequency": 2.0}, "budget": 2000},
    {"mode": "compare", "source": {"kind": "pseudorandom", "seed": 3}, "route": "pullback",
     "action": {"matrix": [[1.0]]}, "regularizer": {"family": "gaussian", "widths": [1.0]},
     "function": {"name": "gaussian", "widths": [2.0]}, "budget": 2000, "tolerance": 0.5},
    {"mode": "oracle", "function": {"name": "quadratic-form", "matrix": [[1.0]]},
     "density": {"name": "coordinate-product", "rank": 1}},
    {"mode": "estimate", "source": {"kind": "halton", "offset": 1},
     "policy": {"kind": "boltzmann", "action": {"matrix": [[1.0]], "constant": 0.5}},
     "function": {"name": "coordinate", "index": 1}, "budget": 2000},
]
FUZZ_POOL = [None, "x", 1.5, True, [], {}, -1, [1]]


def _field_paths(node, prefix=()):
    """Every key of every object, and every list element, below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


FUZZ_CASES = [(i, path) for i, cfg in enumerate(FUZZ_BASES) for path in _field_paths(cfg)]


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(FUZZ_POOL))
def test_fuzzed_config_never_raises(case, value):
    base, path = case
    cfg = copy.deepcopy(FUZZ_BASES[base])
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([FUZZ_BASES[base]["mode"], "--config", str(config),
                         "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_DEGENERATE, EXIT_NOT_CONVERGED, EXIT_CHECK_FAILED)
    if code == EXIT_ERROR:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
