"""One repetition of a workload in a fresh interpreter.

Reads the job list (with references and tolerances) as JSON on stdin,
imports diracmean, builds the workload's inputs, runs and checks every
job, and prints one JSON line with its timings, point count, peak
memory and per-job outcomes.  With ``--trace 1`` it first installs the
span wrappers of ``tracing.py`` and adds the aggregated spans.

    python3 bench/child.py --root . --workload NAME --trace 0|1 --spawn-ns NS < jobs.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn-ns", type=int, required=True,
                   help="time.monotonic_ns() of the parent just before it started this process")
    p.add_argument("--spans", default=None, help="CSV file for the raw spans of a traced run")
    return p.parse_args()


# ---------------------------------------------------------------------------
# Inputs


def _build_source(dm, spec: dict, rank: int):
    kind = spec["kind"]
    if kind == "halton":
        return dm.halton_source(spec["offset"])
    if kind == "pseudorandom":
        return dm.pseudorandom_source(spec["seed"])
    source = dm.weyl_source(index_offset=spec["offset"])
    for k in range(rank):  # the mpmath generators are part of building the input
        source.generator(k)
    return source


def _build_policy(dm, np, spec: dict):
    kind = spec["kind"]
    if kind == "constant":
        return dm.constant_policy()
    if kind == "density":
        return dm.density_policy(lambda x: 1.0 + x[:, 0], 1)
    return dm.boltzmann_policy(dm.quadratic_action(np.diag(spec["diag"])))


def _build_function(dm, np, spec: dict):
    if spec["kind"] == "coordinate":
        k = spec["index"]
        return dm.cylinder_function(k, lambda x: x[:, k - 1], f"x{k}")
    rank = spec["rank"]
    if spec["kind"] == "product":
        return dm.cylinder_function(rank, lambda x: np.prod(x[:, :rank], axis=1), f"x1..x{rank}")
    return dm.cylinder_function(rank, lambda x: x[:, :rank].sum(axis=1), f"x1+..+x{rank}")


def build_inputs(dm, np, cli, jobs: list[dict], work: Path) -> list:
    """Sources, policies and functions for library jobs; a config file,
    parsed once for validation, and an output directory for CLI jobs."""
    inputs = []
    for job in jobs:
        if job["api"] == "cli":
            path = work / f"{job['id']}.json"
            path.write_text(json.dumps(job["config"]))
            cli.parse_config_dict(json.loads(path.read_text()))
            inputs.append([job["mode"], "--config", str(path), "--out", str(work / job["id"])])
            continue
        policy = _build_policy(dm, np, job["policy"])
        func = _build_function(dm, np, job["function"])
        rank = max(policy.rank, func.rank, 1)
        inputs.append((_build_source(dm, job["source"], rank), policy, func))
    return inputs


# ---------------------------------------------------------------------------
# Jobs and checks


def _close(value, truth, tol) -> bool:
    z = complex(value)
    return (math.isfinite(z.real) and math.isfinite(z.imag)
            and abs(z - complex(*truth)) <= tol)


def _cplx(obj) -> complex:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a number, got {obj!r}")
    return complex(obj["re"], obj["im"])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_library_job(dm, job, obj):
    """Returns (problem or None, points, fingerprint)."""
    source, policy, func = obj
    if job["api"] == "run":
        report = dm.run(source, policy, func, job["budget"], dm.StoppingRule(**job["rule"]))
        est, points = report.final_estimate, report.N_used
        if report.stop_reason not in job["stops"]:
            return f"stop reason {report.stop_reason}", points, None
    else:
        acc = dm.run_blocked(source, policy, func, job["total"], job["blocks"])
        est, points = acc.estimate(), acc.count
    if est is dm.DEGENERATE:
        return "degenerate estimate", points, None
    fingerprint = f"{complex(est).real.hex()},{complex(est).imag.hex()},{points}"
    if not _close(est, job["truth"], job["tol"]):
        return f"estimate {est} off {complex(*job['truth'])} by more than {job['tol']:.3g}", points, fingerprint
    return None, points, fingerprint


def run_cli_job(cli, job, argv):
    """Returns (problem or None, points, fingerprint, bytes written)."""
    code = cli.main(argv)
    out = Path(argv[-1])
    summary = json.loads((out / "summary.json").read_text())
    result = summary["result"]
    fingerprint = json.dumps(result, sort_keys=True)
    written = _dir_bytes(out)
    if code not in job["exit"]:
        return f"exit code {code}, expected {job['exit']}", 0, fingerprint, written
    mode = job["mode"]
    problem, points = None, 0
    if mode == "compare":
        points = result["N_used"]
        if result["pass"] is not True:
            problem = "compare verdict failed"
        elif not _close(_cplx(result["estimate"]), job["truth"], job["tol"]):
            problem = f"estimate {result['estimate']} off the closed form"
        elif not _close(_cplx(result["oracle"]), job["truth"], job["oracle_tol"]):
            problem = f"oracle {result['oracle']} off the closed form"
    elif mode == "oracle":
        if not _close(complex(result["value_re"], result["value_im"]), job["truth"], job["tol"]):
            problem = f"oracle value {result} off the closed form"
    elif mode == "fresnel-scan":
        for entry, truth, tol in zip(result["scan"], job["truth"], job["tol"]):
            points += entry["N_used"]
            if not _close(_cplx(entry["estimate"]), truth, tol):
                problem = f"scan sigma={entry['sigma']} estimate off the closed form"
    elif mode == "certify":
        if result["pass"] is not True:
            problem = "certification failed"
    elif "truth" in job:
        points = result["N_used"]
        if not _close(_cplx(result["final_estimate"]), job["truth"], job["tol"]):
            problem = f"estimate {result['final_estimate']} off the closed form"
    else:
        points = result["N_used"]
        if result["final_estimate"] != "degenerate" or result["stop_reason"] != "degenerate":
            problem = "designed cancellation was not reported degenerate"
    return problem, points, fingerprint, written


def main() -> int:
    args = _parse_args()
    jobs = json.loads(sys.stdin.read())
    root = Path(args.root)
    work = root / "bench" / "out" / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)

    t_import = time.perf_counter()
    import diracmean as dm
    import_s = time.perf_counter() - t_import
    import numpy as np  # only now, so that import_s includes numpy's own import
    from diracmean import cli

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    inputs = build_inputs(dm, np, cli, jobs, work)

    first_mono, first_perf = time.monotonic_ns(), time.perf_counter_ns()
    outcomes, points, written = [], 0, 0
    fingerprints: dict[str, str] = {}
    for job, obj in zip(jobs, inputs):
        if tracer is not None:
            tracer.job = job["id"]
        try:
            if job["api"] == "cli":
                problem, n, fp, nbytes = run_cli_job(cli, job, obj)
                written += nbytes
            else:
                problem, n, fp = run_library_job(dm, job, obj)
            original = job.get("repeat_of")
            if problem is None and original is not None and fp != fingerprints.get(original):
                problem = f"repeat of {original} is not bit-identical"
        except Exception as exc:  # a failed job is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            problem, n, fp = f"{type(exc).__name__}: {exc}", 0, None
        fingerprints[job["id"]] = fp
        points += n
        outcomes.append({"id": job["id"], "problem": problem, "fingerprint": fp})
    end_perf = time.perf_counter_ns()

    out = {
        "setup_s": (first_mono - args.spawn_ns) * 1e-9,
        "solve_s": (end_perf - first_perf) * 1e-9,
        "import_s": import_s,
        "points": points,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": written,
        "public_names": sum(1 for n in dir(dm) if not n.startswith("_")),
        "jobs": outcomes,
    }
    if tracer is not None:
        out["solve_spans"] = tracing.aggregate(tracer.spans, first_perf)
        out["all_spans"] = tracing.aggregate(tracer.spans)
        if args.spans:
            tracer.write_csv(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
