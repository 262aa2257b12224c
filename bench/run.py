"""Layered benchmark of diracmean: one workload, one seed, one run.

    python3 bench/run.py --workload qmc-stream|fresnel-cli|blocked-bulk \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory.  Each repetition is a fresh interpreter (``child.py``) with
BLAS and OpenMP pinned to one thread, so ``setup_s`` is the cold start a
CLI call pays.  Repetitions run back to back until the next one would
end after ``--seconds`` (at least three; two untraced and two traced
with ``--trace 1``).  Every job is checked against its closed-form
reference, and every repetition must reproduce the first one's
estimates bit for bit.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions; ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones (medians, counts
checked to repeat exactly).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
record, provenance included, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 150
MIN_REPS = 3
MIN_TRACED_PAIRS = 2

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, build_jobs  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
}

SOURCE_KINDS = ("halton", "weyl", "pseudorandom", "pullback")
POLICY_KINDS = ("constant", "density", "boltzmann", "oscillatory", "product-regularized")
STOP_REASONS = ("window-cauchy", "budget-exhausted", "degenerate")
LAYERS = ("seq", "weights", "action", "cylinder", "mean", "oracle", "cli")

PER_LAYER = {
    "seq.s": "s", "seq.calls": "count", "seq.coords": "count",
    "seq.coords_per_s": "coords/s", "seq.weyl.generator_s": "s",
    **{f"seq.{k}.{m}": u for k in SOURCE_KINDS
       for m, u in (("share", "%"), ("coords", "count"), ("coords_per_s", "coords/s"))},
    "weights.s": "s", "weights.calls": "count",
    **{f"weights.{k}.share": "%" for k in POLICY_KINDS},
    "action.share": "%", "action.calls": "count",
    "cylinder.eval_s": "s", "cylinder.eval_calls": "count", "cylinder.certify.share": "%",
    "mean.chunks": "count", "mean.self_s": "s", "mean.us_per_chunk": "us",
    "mean.add_block_s": "s", "mean.estimate_calls": "count", "mean.merge.share": "%",
    "mean.n_used": "count", **{f"mean.stop.{r}": "count" for r in STOP_REASONS},
    "oracle.share": "%", "oracle.cells_used": "count", "oracle.evals": "count",
    "oracle.evals_per_s": "evals/s",
    "cli.import_s": "s", "cli.parse_calls": "count", "cli.parse.calls_per_s": "calls/s",
    "cli.write.share": "%", "cli.bytes_written": "count",
    "trace.overhead": "ratio", "trace.solve_s": "s", "trace.unattributed_s": "s",
}


# ---------------------------------------------------------------------------
# Repetitions


def spawn(workload: str, jobs_json: str, trace: int) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    shutil.rmtree(OUT / "work" / workload, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spans = OUT / f"{workload}.spans.csv"
    t0 = time.monotonic_ns()
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--workload", workload,
           "--trace", str(trace), "--spawn-ns", str(t0), "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, input=jobs_json, capture_output=True, text=True,
                              env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {CHILD_TIMEOUT_S} s and was killed"}
    wall = (time.monotonic_ns() - t0) * 1e-9
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited with code {proc.returncode}", "wall_s": wall}
    rec = json.loads(lines[-1])
    rec["wall_s"], rec["traced"] = wall, bool(trace)
    return rec


def run_reps(workload: str, jobs: list[dict], seconds: float, trace: int) -> list[dict]:
    jobs_json = json.dumps(jobs)
    plan = (0, 1) if trace else (0,)
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        pairs = len(reps) // len(plan)
        enough = pairs >= (MIN_TRACED_PAIRS if trace else MIN_REPS)
        if enough and len(reps) % len(plan) == 0:
            walls = [r.get("wall_s", 0.0) for r in reps[-len(plan):]]
            if time.monotonic() - start + sum(walls) > seconds:
                return reps
        rep = spawn(workload, jobs_json, plan[len(reps) % len(plan)])
        reps.append(rep)
        print(describe(len(reps), rep, len(jobs)), flush=True)


def describe(i: int, rep: dict, n_jobs: int) -> str:
    if "error" in rep:
        return f"rep {i}: {rep['error']}"
    bad = sum(1 for j in rep["jobs"] if j["problem"])
    return (f"rep {i} [{'traced' if rep['traced'] else 'untraced'}] setup {rep['setup_s']:.3f} s"
            f"  solve {rep['solve_s']:.3f} s  points {rep['points']}"
            f"  rss {rep['peak_rss_mb']:.1f} MiB  failed {bad}/{n_jobs}")


def count_failures(reps: list[dict], jobs: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed jobs over all repetitions.  A job fails on its
    own check, or when its result is not bit-identical to repetition 1."""
    attempted, failed, notes = 0, 0, []
    first = None
    for i, rep in enumerate(reps, 1):
        attempted += len(jobs)
        if "error" in rep:
            failed += len(jobs)
            notes.append(f"rep {i}: every job lost: {rep['error']}")
            continue
        first = first or {j["id"]: j["fingerprint"] for j in rep["jobs"]}
        for j in rep["jobs"]:
            problem = j["problem"]
            if problem is None and j["fingerprint"] != first.get(j["id"]):
                problem = "result differs from repetition 1 (not reproducible)"
            if problem:
                failed += 1
                notes.append(f"rep {i} job {j['id']}: {problem}")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict:
    ok = [r for r in reps if "error" not in r]
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in ok),
        "solve_s": med(r["solve_s"] for r in ok),
        "points_per_s": med(r["points"] / r["solve_s"] for r in ok),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in ok),
        "pass_ratio": 1.0 - failed / attempted,
    }


def layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition.  Times are self times
    inside the solve phase unless the name says otherwise; a share is a
    percentage of the traced solve time."""
    solve, every, total = rep["solve_spans"], rep["all_spans"], rep["solve_s"]

    def get(name, key, table=solve):
        return table.get(name, {}).get(key, 0)

    def self_s(prefix):
        return sum(a["self_s"] for n, a in solve.items()
                   if n == prefix or n.startswith(prefix + "."))

    def share(seconds):
        return 100.0 * seconds / total

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    m = {"seq.s": self_s("seq"), "seq.calls": get("seq.block", "calls"),
         "seq.coords": get("seq.block", "count")}
    m["seq.coords_per_s"] = rate(m["seq.coords"], m["seq.s"])
    m["seq.weyl.generator_s"] = get("seq.weyl.generator", "incl_s", every)
    for kind in SOURCE_KINDS:
        s, n = self_s(f"seq.{kind}"), get(f"seq.{kind}", "count")
        m.update({f"seq.{kind}.share": share(s), f"seq.{kind}.coords": n,
                  f"seq.{kind}.coords_per_s": rate(n, s)})
    m["weights.s"] = self_s("weights")
    m["weights.calls"] = sum(get(f"weights.{k}", "calls") for k in POLICY_KINDS)
    for kind in POLICY_KINDS:
        m[f"weights.{kind}.share"] = share(self_s(f"weights.{kind}"))
    m["action.share"] = share(self_s("action"))
    m["action.calls"] = get("action.eval", "calls")
    m["cylinder.eval_s"] = get("cylinder.eval", "self_s")
    m["cylinder.eval_calls"] = get("cylinder.eval", "calls")
    m["cylinder.certify.share"] = share(get("cylinder.certify", "self_s"))
    m["mean.chunks"] = get("mean.add_block", "calls")
    m["mean.self_s"] = get("mean.run", "self_s") + get("mean.run_blocked", "self_s")
    m["mean.us_per_chunk"] = 1e6 * rate(m["mean.self_s"], m["mean.chunks"])
    m["mean.add_block_s"] = get("mean.add_block", "self_s")
    m["mean.estimate_calls"] = get("mean.estimate", "calls")
    m["mean.merge.share"] = share(get("mean.merge", "self_s"))
    m["mean.n_used"] = get("mean.run", "count") + get("mean.run_blocked", "count")
    stops = get("mean.run", "notes") or {}
    for reason in STOP_REASONS:
        m[f"mean.stop.{reason}"] = stops.get(reason, 0)
    m["oracle.share"] = share(self_s("oracle"))
    m["oracle.cells_used"] = get("oracle.expectation", "count")
    m["oracle.evals"] = get("oracle.quadrature", "count")
    oracle_s = sum(a["outer_s"] for n, a in solve.items() if n.startswith("oracle."))
    m["oracle.evals_per_s"] = rate(m["oracle.evals"], oracle_s)
    m["cli.import_s"] = rep["import_s"]
    m["cli.parse_calls"] = get("cli.parse", "calls", every)
    m["cli.parse.calls_per_s"] = rate(m["cli.parse_calls"], get("cli.parse", "incl_s", every))
    m["cli.write.share"] = share(get("cli.write", "self_s") + get("cli.execute", "self_s"))
    m["cli.bytes_written"] = rep["bytes_written"]
    m["trace.solve_s"] = total
    m["trace.unattributed_s"] = total - sum(a["self_s"] for a in solve.values())
    return m


def per_layer(reps: list[dict]) -> tuple[dict, list[str]]:
    """Medians over the traced repetitions; counts must repeat exactly."""
    traced = [layer_metrics(r) for r in reps if r.get("traced") and "error" not in r]
    untraced = [r["solve_s"] for r in reps if not r.get("traced") and "error" not in r]
    problems = []
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead":
            continue
        values = [m[name] for m in traced]
        if unit == "count":
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between traced repetitions: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead"] = out["trace.solve_s"] / statistics.median(untraced)
    return out, problems


def print_breakdown(reps: list[dict]) -> None:
    """Self time of every span name and layer in the median traced
    repetition, plus the time no span covers; they add up to solve_s."""
    traced = sorted((r for r in reps if r.get("traced") and "error" not in r),
                    key=lambda r: r["solve_s"])
    rep = traced[len(traced) // 2]
    solve, total = rep["solve_spans"], rep["solve_s"]
    print(f"traced breakdown (repetition with the median traced solve_s = {total:.4f} s):")
    for name, a in sorted(solve.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  span {name:24s} calls {a['calls']:8d}  self {a['self_s']:9.4f} s"
              f"  {100 * a['self_s'] / total:6.2f} %")
    attributed = 0.0
    for layer in LAYERS:
        s = sum(a["self_s"] for n, a in solve.items() if n.split(".", 1)[0] == layer)
        attributed += s
        print(f"  layer {layer:10s} self {s:9.4f} s  {100 * s / total:6.2f} %")
    print(f"  unattributed     self {total - attributed:9.4f} s  "
          f"{100 * (total - attributed) / total:6.2f} %  (benchmark glue and checks)")
    print(f"  layers + unattributed = {total:.4f} s = traced solve_s")
    n_used = layer_metrics(rep)["mean.n_used"]
    print(f"  mean.n_used {n_used} vs points counted from results {rep['points']}")


# ---------------------------------------------------------------------------
# Provenance


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _proc_field(path: str, key: str) -> str:
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _version(pkg: str) -> str:
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return "not installed"


def provenance(public_names) -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "public_names": public_names,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "diracmean" / "__init__.py").is_file():
        print(f"error: no diracmean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    jobs = build_jobs(args.workload, args.seed)
    reps = run_reps(args.workload, jobs, args.seconds, args.trace)
    attempted, failed, notes = count_failures(reps, jobs)
    ok = [r for r in reps if "error" not in r]
    if args.trace and len({r["traced"] for r in ok}) < 2:
        ok = []  # the overhead needs a traced and an untraced repetition
    metrics: dict = {}
    if ok:
        if args.trace:
            metrics, problems = per_layer(reps)
            failed += len(problems)
            notes += problems
            print_breakdown(reps)
        else:
            metrics = end_to_end(reps, attempted, failed)
    for note in notes:
        print(f"FAIL {note}")
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    print(f"attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.6g}")
    prov = provenance(ok[0]["public_names"] if ok else None)
    print("provenance " + json.dumps(prov, sort_keys=True))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "jobs": jobs, "failures": notes,
              "repetitions": [{k: v for k, v in r.items() if not k.endswith("_spans")}
                              for r in reps],
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    if not ok:
        print("error: no usable repetition (a traced run needs one of each kind)", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
