"""In-memory spans around ppric's layer entry points, for traced runs.

``Tracer.install`` replaces each traced function with a wrapper in every
``ppric`` module that bound it (``from .codes import verify_exact`` makes
one binding per importing module), so no file under src/ changes.  A span
is [name, start, end, parent, op, extra]; a span's self time is its length
minus the lengths of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time


def _nodes(args, result):
    return result.nodes_explored


def _records(args, result):
    return len(args[0].records)


# (module, attribute, span name, extra) -- attribute "Class.method" wraps a
# method; extra(args, result) gives a count kept with the span
TARGETS = [
    ("ppric.cli", "main", "cli.main", None),
    ("ppric.search", "_Space.__init__", "search.space", None),
    ("ppric.search", "exact_n_search", "search.exact_n_search", _nodes),
    ("ppric.bounds", "best_lower", "bounds.best_lower", None),
    ("ppric.covering", "exact_covering_number", "covering.exact", None),
    ("ppric.schemes", "johnson_exact_check", "schemes.johnson_exact", None),
    ("ppric.codes", "verify_exact", "codes.verify_exact", None),
    ("ppric.codes", "_min_multihit_set", "codes.multihit", None),
    ("ppric.construct", "available_recipes", "construct.recipes", None),
    ("ppric.construct", "build_recipe", "construct.build", None),
    ("ppric.construct", "build_disjoint", "construct.build", None),
    ("ppric.construct", "build_extremal", "construct.build", None),
    ("ppric.construct", "build_superset", "construct.build", None),
    ("ppric.construct", "construction1", "construct.build", None),
    ("ppric.construct", "construction2", "construct.build", None),
    ("ppric.construct", "construction3", "construct.build", None),
    ("ppric.construct", "TypedDesign.validate_type", "construct.validate_type",
     None),
    ("ppric.protocol", "Database.from_text", "protocol.db_load", None),
    ("ppric.protocol", "_check_code", "protocol.check_code", None),
    ("ppric.protocol", "server_answer", "protocol.server_answer", _records),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    tracer.spans[idx][5] = extra(args, result)
                return result
            finally:
                tracer.end(idx)

        return traced

    def install(self) -> None:
        """Wrap every target in the freshly imported ppric modules."""
        for modname, attr, name, extra in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth,
                            classmethod(self.wrap(raw.__func__, name, extra)))
                else:
                    setattr(cls, meth, self.wrap(raw, name, extra))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(original, name, extra)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "ppric":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name, over the spans inside ops: calls, total seconds,
        self seconds, extra sum."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, op, extra) in enumerate(self.spans):
            if op is None:  # made during a set-up
                continue
            agg = out.setdefault(
                name, {"calls": 0, "total": 0.0, "self": 0.0, "extra": 0})
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += end - start - child[i]
            agg["extra"] += extra or 0
        return out

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """The benchmark's per-layer metrics as name -> (value, unit).

        Times and counts are per round (one pass over the op list), since
        a run repeats rounds for a fixed time; rates are over the whole
        run, and the database load is the median over the set-ups.
        """
        t = self.totals()
        loads = [end - start for name, start, end, _, op, _ in self.spans
                 if name == "protocol.db_load" and op is None]
        zero = {"calls": 0, "total": 0.0, "self": 0.0, "extra": 0}

        def get(name, key):
            return t.get(name, zero)[key]

        def per(name, key):
            return get(name, key) / rounds

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        dfs = "search.exact_n_search"
        answers = "protocol.server_answer"
        return {
            "search.precompute_s": (per("search.space", "total"), "s"),
            "search.dfs_s": (per(dfs, "self"), "s"),
            "search.nodes": (per(dfs, "extra"), "count"),
            "search.nodes_per_s": (rate(get(dfs, "extra"), get(dfs, "self")), "1/s"),
            "bounds.best_lower_s": (per("bounds.best_lower", "self"), "s"),
            "bounds.calls": (per("bounds.best_lower", "calls"), "count"),
            "covering.exact_s": (per("covering.exact", "total"), "s"),
            "covering.exact_calls": (per("covering.exact", "calls"), "count"),
            "schemes.johnson_exact_s": (per("schemes.johnson_exact", "total"), "s"),
            "codes.verify_exact_s": (per("codes.verify_exact", "total"), "s"),
            "codes.verify_calls": (per("codes.verify_exact", "calls"), "count"),
            "codes.multihit_s": (per("codes.multihit", "total"), "s"),
            "codes.multihit_calls": (per("codes.multihit", "calls"), "count"),
            "construct.build_s": (per("construct.build", "self")
                                  + per("construct.recipes", "self"), "s"),
            "construct.validate_type_s": (per("construct.validate_type", "total"), "s"),
            "protocol.check_code_s": (per("protocol.check_code", "total"), "s"),
            "protocol.server_answer_s": (per(answers, "total"), "s"),
            "protocol.server_answers": (per(answers, "calls"), "count"),
            "protocol.records_per_s": (rate(get(answers, "extra"), get(answers, "total")), "1/s"),
            "protocol.db_load_s": (statistics.median(loads) if loads else 0.0,
                                   "s"),
            "cli.self_s": (per("cli.main", "self"), "s"),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "extra": extra}) + "\n")
