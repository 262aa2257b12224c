"""Span tracing of diracmean from outside the program.

``install`` wraps the public entry points of each layer -- source
coordinate blocks, weight policies, actions, cylinder functions, the
accumulator, the run loops, the oracle and the CLI's parse/execute/write
steps -- so every call records a span ``[name, start_ns, end_ns,
parent, job, child_ns, count, note]`` in memory.  Wrappers are found by
walking the public base classes and by rebinding module-level functions
wherever diracmean holds them; a hook that a later version of the
program no longer has is skipped, and its time shows up in its caller's
self time instead.  Only the traced run installs anything.
"""

from __future__ import annotations

import functools
import sys
import time

NAME, START, END, PARENT, JOB, CHILD, COUNT, NOTE = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = ""

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording one span per call; ``measure(args, result)``
        returns the span's ``(count, note)``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, tracer.job, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]
            if measure is not None:
                rec[COUNT], rec[NOTE] = measure(args, result)
            return result

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,job,self_ns,count,note\n")
            for i, s in enumerate(self.spans):
                self_ns = s[END] - s[START] - s[CHILD]
                fh.write(f"{i},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[JOB]},"
                         f"{self_ns},{s[COUNT]},{'' if s[NOTE] is None else s[NOTE]}\n")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _patch_method(tracer, cls, attr, name, measure=None):
    if attr in cls.__dict__:
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], measure))


def _patch_function(tracer, module, attr, name, measure=None):
    """Wrap ``module.attr`` and rebind it in every diracmean module that
    imported it by name."""
    original = getattr(module, attr, None)
    if original is None:
        return
    wrapped = tracer.wrap(name, original, measure)
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "diracmean" or mod_name.startswith("diracmean.")):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _rows(args, result):
    return len(args[1]), None


def install(tracer: Tracer) -> None:
    from diracmean import action, cli, cylinder, mean, oracle, seq, weights

    nodes = len(getattr(oracle, "_NODES", range(7)))

    def block_coords(args, result):
        return result.shape[0] * result.shape[1], None

    def quadrature_evals(args, result):
        # Cell doubling evaluates the integrand at every resolution from the
        # spec's starting cells up to the one returned: computed, not counted.
        spec, cells = args[1], result[1]
        c, evals = spec.cells_per_axis, 0
        while c <= cells:
            evals += (nodes * c) ** spec.rank
            c *= 2
        return evals, None

    _patch_method(tracer, seq.PointSource, "block", "seq.block", block_coords)
    for cls in _subclasses(seq.PointSource)[1:]:
        _patch_method(tracer, cls, "coordinate_block", f"seq.{cls.kind}", _rows)
        if cls.kind == "weyl":
            _patch_method(tracer, cls, "generator", "seq.weyl.generator")
    for cls in _subclasses(weights.WeightPolicy)[1:]:
        _patch_method(tracer, cls, "weights", f"weights.{cls.kind}", _rows)
    for cls in _subclasses(action.ActionFunctional)[1:]:
        _patch_method(tracer, cls, "__call__", "action.eval", _rows)
    _patch_method(tracer, cylinder.CylinderFunction, "eval_block", "cylinder.eval", _rows)
    _patch_method(tracer, mean.MeanAccumulator, "add_block", "mean.add_block", _rows)
    _patch_method(tracer, mean.MeanAccumulator, "estimate", "mean.estimate")
    _patch_method(tracer, mean.ConvergenceReport, "write_csv", "cli.write")

    _patch_function(tracer, mean, "run", "mean.run",
                    lambda args, r: (r.N_used, r.stop_reason))
    _patch_function(tracer, mean, "run_blocked", "mean.run_blocked",
                    lambda args, acc: (acc.count, None))
    _patch_function(tracer, mean, "merge", "mean.merge")
    _patch_function(tracer, cylinder, "hierarchy_certify", "cylinder.certify")
    _patch_function(tracer, oracle, "tensor_quadrature_with_info", "oracle.quadrature",
                    quadrature_evals)
    _patch_function(tracer, oracle, "normalized_expectation_with_info", "oracle.expectation",
                    lambda args, r: (r[1], None))
    _patch_function(tracer, cli, "parse_config_dict", "cli.parse", lambda args, r: (1, None))
    _patch_function(tracer, cli, "execute", "cli.execute")


def aggregate(spans: list[list], since_ns: int = 0) -> dict:
    """Per span name: calls, summed self and inclusive seconds, summed
    counts, inclusive seconds of the outermost spans of each layer, and
    the notes seen (stop reasons), over spans starting at ``since_ns``."""
    out: dict[str, dict] = {}
    for s in spans:
        if s[START] < since_ns:
            continue
        a = out.get(s[NAME])
        if a is None:
            a = out[s[NAME]] = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "outer_s": 0.0,
                                "count": 0, "notes": {}}
        dur = s[END] - s[START]
        a["calls"] += 1
        a["self_s"] += (dur - s[CHILD]) * 1e-9
        a["incl_s"] += dur * 1e-9
        a["count"] += s[COUNT]
        parent = s[PARENT]
        layer = s[NAME].split(".", 1)[0]
        if parent < 0 or spans[parent][NAME].split(".", 1)[0] != layer:
            a["outer_s"] += dur * 1e-9
        if s[NOTE] is not None:
            a["notes"][s[NOTE]] = a["notes"].get(s[NOTE], 0) + 1
    return out
