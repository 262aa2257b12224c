"""The import contract: ``import diracmean`` loads numpy alone, and
``scipy.special`` is loaded where a normal family or a chi-square
certificate is built.  Each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys

import diracmean as dm

LOADED = "sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath'))"


def fresh(code: str):
    """The JSON value that ``code``, run in a new interpreter, prints last."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_neither_scipy_nor_mpmath():
    assert fresh(f"import json, sys, diracmean, diracmean.cli; print(json.dumps({LOADED}))") == []


RUNS = """
import numpy as np
import diracmean as dm
sources = [dm.halton_source(1), dm.weyl_source(index_offset=1), dm.pseudorandom_source(7)]
policies = [dm.constant_policy(), dm.density_policy(lambda x: 1.0 + x[:, 0], 1),
            dm.boltzmann_policy(dm.quadratic_action(np.diag([1.0, 0.5])))]
func = dm.cylinder_function(2, lambda x: x[:, 0] * x[:, 1])
results = []
for source in sources:
    for policy in policies:
        report = dm.run(source, policy, func, 4000, dm.StoppingRule(min_samples=1000))
        blocked = dm.run_blocked(source, policy, func, 70000, 2).estimate()
        results.append([repr(report.final_estimate), report.stop_reason, report.N_used,
                        repr(blocked)])
"""


def test_runs_complete_without_scipy_or_mpmath():
    # A None entry in sys.modules makes every import of that package fail.
    code = ("import json, sys\nsys.modules['scipy'] = sys.modules['mpmath'] = None\n" + RUNS
            + "print(json.dumps(results))")
    scope: dict = {}
    exec(RUNS, scope)
    assert fresh(code) == scope["results"]


def test_building_a_normal_family_loads_scipy_special():
    code = f"""import json, sys
import diracmean
before = {LOADED}
diracmean.normal_quantiles(1.0)
print(json.dumps([before, 'scipy.special' in sys.modules]))"""
    assert fresh(code) == [[], True]


def test_parsing_a_config_with_a_regularizer_loads_scipy_special():
    config = {"mode": "estimate", "source": {"kind": "halton", "offset": 1},
              "route": "pullback", "action": {"matrix": [[1.0]]},
              "regularizer": {"widths": [1.0]},
              "function": {"name": "coordinate", "index": 1}, "budget": 2000}
    code = f"""import json, sys
from diracmean import cli
before = {LOADED}
cli.parse_config_dict({config!r})
print(json.dumps([before, 'scipy.special' in sys.modules]))"""
    assert fresh(code) == [[], True]


def test_certificate_after_a_cold_import():
    code = f"""import json, sys
from diracmean import halton_source, hierarchy_certify
before = {LOADED}
reports = [r.to_dict() for r in hierarchy_certify(halton_source(0), [1, 2, 3], 8192)]
print(json.dumps([before, 'scipy.special' in sys.modules, reports]))"""
    expected = [r.to_dict() for r in dm.hierarchy_certify(dm.halton_source(0), [1, 2, 3], 8192)]
    assert fresh(code) == [[], True, expected]
    assert all(r["pass"] for r in expected)
