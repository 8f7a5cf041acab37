"""Layer spans recorded from outside the package.

The tracer replaces each wrapped public function with a timing wrapper, in
the module that defines it and in every ``daxkernel`` module that imported
it by name, so a call through any reference is seen.  A span has a name, a
start, an end, the name of the span that was open when it started, and the
id of the op it belongs to.  Self time is a span's duration minus the
duration of its child spans.

Spans of the hot leaf layers (word normal forms, pairing and dax formulas,
row reduction) run hundreds of thousands of times per pass; those are
aggregated into calls and time only, so memory stays bounded.  All other
spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

HOT = frozenset({"groups.normalize", "pairing.lambda", "calculus.dax",
                 "snf.reduce"})


def _count_build(counters, args, result):
    # build_rel_3mfd returns the relation set with the orbit action data
    rs = result[0] if isinstance(result, tuple) else result
    counters["quotient.generators"] += len(rs.generators)
    counters["quotient.relations"] += len(rs.relations)
    counters["quotient.dropped"] += len(rs.dropped)


def _count_orbit(counters, args, result):
    counters["quotient.orbit.states"] += result.size
    counters["quotient.orbit.incomplete"] += not result.complete


def _count_sparse(counters, args, result):
    counters["snf.sparse.nnz"] += sum(len(col) for col in args[0])


def _dense_name(parent: str | None) -> str:
    if parent == "snf.sparse":
        return "snf.dense_residual"
    if parent in ("quotient.coords", "quotient.solver"):
        return "snf.dense_transform"
    if parent == "snf.solve":
        return "snf.dense_solve"
    return "snf.dense_other"


# (module, attribute, span name, counter hook); a name is either a module
# function or ``Class.method``.
WRAPPED = [
    ("groups", "ball", "groups.ball",
     lambda c, a, r: c.update({"groups.ball.elements": len(r)})),
    ("groups", "normalize", "groups.normalize", None),
    ("pairing", "lambda_word", "pairing.lambda", None),
    ("pairing", "lambda_arc", "pairing.lambda", None),
    ("pairing", "lambda_linear", "pairing.lambda", None),
    ("pairing", "lambda_flip", "pairing.lambda", None),
    ("pairing", "lambda_letters", "pairing.lambda", None),
    ("pairing", "lambdabar_conj_shift", "pairing.lambda", None),
    ("calculus", "dax_rebase", "calculus.dax", None),
    ("calculus", "dax_translate", "calculus.dax", None),
    ("calculus", "dax_u_general", "calculus.dax", None),
    ("calculus", "dax_u_embedded", "calculus.dax", None),
    ("calculus", "dax_boundary_sphere", "calculus.dax", None),
    ("calculus", "dax_image", "calculus.dax", None),
    ("quotient", "window_generators", "quotient.window", None),
    ("quotient", "build_rel_arcs", "quotient.build_rel", _count_build),
    ("quotient", "build_rel_circles", "quotient.build_rel", _count_build),
    ("quotient", "build_rel_3mfd", "quotient.build_rel", _count_build),
    ("quotient", "QuotientSolver.__init__", "quotient.solver", None),
    ("quotient", "QuotientSolver.coords", "quotient.coords", None),
    ("quotient", "restrict_relationset", "quotient.restrict", None),
    ("quotient", "quotient_structure", "quotient.structure", None),
    ("quotient", "concordance_quotient", "quotient.concordance", None),
    ("quotient", "centralizer_orbit_reduce", "quotient.orbit", _count_orbit),
    ("snf", "sparse_rank_and_torsion", "snf.sparse", _count_sparse),
    ("snf", "smith_normal_form", None, None),  # named by its parent span
    ("snf", "hermite_row_basis", "snf.hermite", None),
    ("snf", "reduce_mod_rows", "snf.reduce", None),
    ("snf", "solve_integer", "snf.solve", None),
    ("traces", "eval_dax_trace", "traces.eval", None),
    ("traces", "mu2_reduce", "traces.eval", None),
    ("traces", "dax_of_knot", "traces.dax_of_knot", None),
    ("traces", "universality_witness", "traces.universality", None),
    ("scene", "loads_scene", "scene.loads", None),
    ("scene", "scene_to_dict", "scene.to_dict", None),
    ("cli", "run_scene", "cli.run_scene", None),
    ("cli", "build_relations", "cli.build_relations", None),
    ("cli", "render_report", "cli.render", None),
]


class Tracer:
    """Span stack, per-name totals and counters for one traced phase."""

    def __init__(self):
        self.stack: list[list] = []   # [name, start, child time]
        self.totals: dict[str, list] = {}  # name -> [calls, total, self]
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.op_id: str | None = None
        self.patched: list[tuple[str, str, list[str]]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str):
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        name, start, child = self.stack.pop()
        dur = end - start
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if name not in HOT:
            self.spans.append((name, start, end,
                               parent[0] if parent else None, self.op_id))

    def span(self, name: str):
        return _Span(self, name)

    # -- patching ------------------------------------------------------------

    def _wrapper(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if span is None:
                stack = tracer.stack
                span = _dense_name(stack[-1][0] if stack else None)
                rows = args[0]
                tracer.counters[span + ".cells"] += len(rows) * (len(rows[0]) if rows else 0)
            tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return wrapper

    def install(self):
        """Patch every wrapped name wherever a ``daxkernel`` module holds it."""
        modules = {name: mod for name, mod in sorted(sys.modules.items())
                   if name == "daxkernel" or name.startswith("daxkernel.")}
        for mod_name, attr, span, hook in WRAPPED:
            home = modules[f"daxkernel.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrapper(original, span, hook))
                self.patched.append((f"{mod_name}.{attr}", span or "snf.dense_*",
                                     [f"{home.__name__}.{attr}"]))
                continue
            original = getattr(home, attr)
            wrapper = self._wrapper(original, span, hook)
            where = []
            for name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
                        where.append(f"{name}.{key}")
            self.patched.append((f"{mod_name}.{attr}", span or "snf.dense_*", where))

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.enter(self.name)

    def __exit__(self, *exc):
        self.tracer.exit()
        return False
