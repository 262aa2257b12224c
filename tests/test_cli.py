"""Experiment driver: parsing, validation, modes, exit codes, determinism."""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    rows = list(csv.reader((out / "trace.csv").read_text().splitlines()))
    assert rows[0] == ["m", "re_num", "im_num", "re_den", "im_den",
                       "re_est", "im_est", "den_ratio"]
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


# ---------------------------------------------------------------------------
# malformed configs fail at parse, as one line naming the field

SCAN = {"mode": "fresnel-scan", "source": {"kind": "halton", "offset": 1},
        "action": {"matrix": [[1.0]]}, "sigmas": [1.0, 2.0], "budget": 2000}
CERTIFY = {"mode": "certify", "budget": 10000, "source": {"kind": "halton"}}
ALPHA = "0.4142135623730951"
ORACLE = {"mode": "oracle", "function": {"name": "coordinate", "index": 1},
          "density": {"name": "coordinate-product", "rank": 1}}


@pytest.mark.parametrize("cfg, field", [
    (dict(MINIMAL, source={"kind": "pullback", "base": {
        "kind": "pullback", "base": {"kind": "halton", "offset": 1}}}), "source.base"),
    (dict(MINIMAL, source={"kind": "weyl", "alphas": ["abc"]}), "source.alphas"),
    (dict(MINIMAL, source={"kind": "weyl", "alphas": "0.4142135623730951"}), "source.alphas"),
    (dict(MINIMAL, source={"kind": "weyl", "alphas": ["0.25", "0.5"]}), "source.alphas"),
    (dict(CERTIFY, hierarchy=2), "hierarchy"),
    (dict(CERTIFY, hierarchy=[]), "hierarchy"),
    (dict(CERTIFY, hierarchy=[1, 2], bins_per_axis=4), "bins_per_axis"),
    (dict(SCAN, sigmas=2.0), "sigmas"),
    (dict(SCAN, sigmas=[]), "sigmas"),
    (dict(SCAN, action={"matrix": [[1.0, 0.0], [0.0, 1.0]]}), "action"),
    (dict(SCAN, action={"matrix": [[0.0]]}), "action"),
    (dict(ORACLE, cells_per_axis=4096), "cells_per_axis"),
    (dict(ORACLE, density={"name": "coordinate-product", "rank": 2}, cells_per_axis=512),
     "cells_per_axis"),
    (dict(ORACLE, density={"name": "coordinate-product", "rank": 4}), "density"),
    (dict(MINIMAL, source={"kind": "weyl", "alphas": [ALPHA]}), "source.alphas"),
    (dict(MINIMAL, source={"kind": "pullback", "base": {"kind": "weyl", "alphas": [ALPHA]}}),
     "source.base.alphas"),
    (dict(CERTIFY, source={"kind": "weyl", "alphas": [ALPHA]}, hierarchy=[1, 2]),
     "source.alphas"),
    ({"mode": "estimate", "source": {"kind": "halton"}, "route": "pullback",
      "action": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, "regularizer": {"widths": [1.0]},
      "function": {"name": "coordinate", "index": 1}, "budget": 2000}, "regularizer.widths"),
], ids=["pullback-of-pullback", "alpha-not-a-number", "alphas-scalar", "alphas-rational",
        "hierarchy-scalar", "hierarchy-empty", "bins-scalar", "sigmas-scalar", "sigmas-empty",
        "scan-rank-2", "scan-zero-curvature", "cells-no-room-rank-1", "cells-no-room-rank-2",
        "oracle-rank-4", "alphas-short-of-function-rank", "base-alphas-short-of-function-rank",
        "alphas-short-of-hierarchy", "route-widths-short-of-action-rank"])
def test_malformed_config_is_one_error_line_naming_the_field(tmp_path, capsys, cfg, field):
    code, summary, _ = run_cli(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert summary is None
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
        parse_config(json.dumps(dict(MINIMAL, function=params)))


# ---------------------------------------------------------------------------
# config fuzzing: one field of a valid config replaced by a wrong-typed value

FUZZ_BASES = [
    dict(MINIMAL, budget=2000),
    dict(DENSITY, budget=2000),
    ALTERNATING,
    dict(NORMAL_PULLBACK, budget=2000, stopping={"min_samples": 2000}),
    dict(SCAN, regularizer={"family": "gaussian", "widths": [1.0]}, route="weight-borne",
         function={"name": "coordinate", "index": 1}, stopping={"min_samples": 1000}),
    dict(CERTIFY, budget=2000, source={"kind": "weyl", "alphas": ["0.4142135623730951"]},
         hierarchy=[1], bins_per_axis=[4]),
    {"mode": "estimate", "source": {"kind": "convergent", "target": [0.3], "rate": 0.5},
     "policy": {"kind": "fresnel", "action": {"matrix": [[1.0]], "linear": [0.5]},
                "regularizer": {"widths": [1.0]}},
     "function": {"name": "cosine", "index": 1, "frequency": 2.0}, "budget": 2000},
    {"mode": "compare", "source": {"kind": "pseudorandom", "seed": 3}, "route": "pullback",
     "action": {"matrix": [[1.0]]}, "regularizer": {"family": "gaussian", "widths": [1.0]},
     "function": {"name": "gaussian", "widths": [2.0]}, "budget": 2000, "tolerance": 0.5},
    {"mode": "oracle", "function": {"name": "quadratic-form", "matrix": [[1.0]]},
     "density": {"name": "coordinate-product", "rank": 1}, "cells_per_axis": 4},
    {"mode": "estimate", "source": {"kind": "halton", "offset": 1},
     "policy": {"kind": "boltzmann", "action": {"matrix": [[1.0]], "constant": 0.5}},
     "function": {"name": "coordinate", "index": 1}, "budget": 2000, "trace_stride": 500,
     "block_size": 512, "box_half_width": 2.0},
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
