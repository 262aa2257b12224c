"""Experiment driver: parsing, validation, modes, exit codes, determinism."""

import csv
import json
import math

import pytest

from diracmean.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DEGENERATE,
    EXIT_ERROR,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    execute,
    main,
    parse_config,
    parse_config_dict,
)
from diracmean.errors import ParseError, ValidationError

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


def run_cli(tmp_path, cfg, command=None, extra=()):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    cmd = command or cfg["mode"]
    out = tmp_path / "out"
    code = main([cmd, "--config", str(path), "--out", str(out), *extra])
    summary = None
    if (out / "summary.json").exists():
        summary = json.loads((out / "summary.json").read_text())
    return code, summary, out


# ---------------------------------------------------------------------------
# parsing


def test_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.stopping == {"window": 8, "rel_tol": 1e-4, "min_samples": 1000,
                            "degeneracy_threshold": 1e-8}
    assert cfg.trace_stride == 1000
    assert cfg.significance == 0.999
    assert cfg.source == {"kind": "halton", "offset": 0}


def test_unknown_policy_name_is_a_validation_error():
    bad = dict(MINIMAL, policy={"kind": "frenel"})
    with pytest.raises(ValidationError, match="policy"):
        parse_config(json.dumps(bad))


def test_unknown_function_name_is_a_validation_error():
    bad = dict(MINIMAL, function={"name": "coordinate-prodct"})
    with pytest.raises(ValidationError, match="function"):
        parse_config(json.dumps(bad))


def test_budget_below_min_samples_rejected():
    bad = dict(MINIMAL, budget=10)
    with pytest.raises(ValidationError, match="budget"):
        parse_config(json.dumps(bad))


def test_malformed_json_is_a_parse_error_with_location():
    with pytest.raises(ParseError, match="line"):
        parse_config("{not json")


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationError, match="unknown keys"):
        parse_config(json.dumps(dict(MINIMAL, sigma=3)))


def test_mode_mismatch_rejected():
    with pytest.raises(ValidationError, match="mode"):
        parse_config(json.dumps(MINIMAL), mode="certify")


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
        parse_config(config)


def test_route_and_policy_are_exclusive():
    bad = dict(MINIMAL, route="pullback",
               action={"matrix": [[1.0]]},
               regularizer={"family": "gaussian", "widths": [1.0]})
    with pytest.raises(ValidationError, match="policy"):
        parse_config(json.dumps(bad))


def test_config_round_trip_through_echo():
    for raw in (MINIMAL, DENSITY, ALTERNATING):
        cfg = parse_config_dict(dict(raw))
        echoed = json.loads(json.dumps(cfg.to_dict()))
        assert parse_config_dict(echoed) == cfg


# ---------------------------------------------------------------------------
# execution and exit codes


def test_estimate_density_example(tmp_path):
    code, summary, out = run_cli(tmp_path, DENSITY)
    assert code == EXIT_OK
    est = summary["result"]["final_estimate"]
    assert abs(est["re"] - 5.0 / 9.0) <= 2e-3
    assert est["im"] == 0.0
    rows = list(csv.reader((out / "trace.csv").open()))
    assert rows[0] == ["m", "re_num", "im_num", "re_den", "im_den",
                       "re_est", "im_est", "den_ratio"]
    assert len(rows) > 2


def test_estimate_alternating_phase_exits_degenerate(tmp_path):
    code, summary, out = run_cli(tmp_path, ALTERNATING)
    assert code == EXIT_DEGENERATE
    assert summary["result"]["final_estimate"] == "degenerate"
    for row in list(csv.reader((out / "trace.csv").open()))[1:]:
        for cell in row:
            if cell:
                assert math.isfinite(float(cell))


def test_estimate_non_convergence_exits_3(tmp_path):
    cfg = dict(DENSITY, budget=2000,
               stopping={"rel_tol": 1e-12, "min_samples": 1000})
    code, summary, _ = run_cli(tmp_path, cfg)
    assert code == EXIT_NOT_CONVERGED
    assert summary["result"]["stop_reason"] == "budget-exhausted"


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


def test_fresnel_scan_mode_writes_csv(tmp_path):
    cfg = {"mode": "fresnel-scan",
           "source": {"kind": "halton", "offset": 1},
           "action": {"matrix": [[1.0]]},
           "sigmas": [1.0, 2.0],
           "budget": 50000, "stopping": {"min_samples": 50000}}
    code, summary, out = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    rows = list(csv.reader((out / "scan.csv").open()))
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


def test_block_size_flag_changes_nothing_material(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(DENSITY, stopping={"min_samples": 100000})))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["estimate", "--config", str(path), "--out", str(out1), "--blocks", "4096"])
    main(["estimate", "--config", str(path), "--out", str(out2), "--blocks", "12500"])
    e1 = json.loads((out1 / "summary.json").read_text())["result"]["final_estimate"]
    e2 = json.loads((out2 / "summary.json").read_text())["result"]["final_estimate"]
    assert abs(complex(e1["re"], e1["im"]) - complex(e2["re"], e2["im"])) <= 1e-12


def test_seed_flag_overrides_pseudorandom_source(tmp_path):
    cfg = dict(MINIMAL, source={"kind": "pseudorandom", "seed": 1}, budget=5000)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for seed in ("7", "8"):
        out = tmp_path / f"s{seed}"
        main(["estimate", "--config", str(path), "--out", str(out), "--seed", seed])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["settings"]["source"]["seed"] == int(seed)
        outs.append(summary["result"]["final_estimate"]["re"])
    assert outs[0] != outs[1]


def test_seed_flag_rejected_for_deterministic_sources(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DENSITY))
    code = main(["estimate", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--seed", "3"])
    assert code == EXIT_ERROR


def test_env_var_sets_default_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("DIRACMEAN_OUT", str(target))
    cfg = parse_config_dict(dict(MINIMAL, budget=2000,
                                 stopping={"min_samples": 2000}))
    assert execute(cfg) == EXIT_NOT_CONVERGED
    assert (target / "summary.json").exists()


def test_missing_config_file_is_exit_1(tmp_path):
    assert main(["estimate", "--config", str(tmp_path / "nope.json")]) == EXIT_ERROR


def test_budget_flag_overrides_config(tmp_path):
    cfg = dict(DENSITY, budget=50000)
    code, summary, _ = run_cli(tmp_path, cfg, extra=("--budget", "25000"))
    assert summary["settings"]["budget"] == 25000
    assert summary["result"]["N_used"] <= 25000
