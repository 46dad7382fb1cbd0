"""Spans and counters recorded from outside the library.

The library has no tracing of its own, so the traced run swaps public
functions for timing wrappers at the names each module looks them up by
(``comptrans.pipeline.seman``, ``comptrans.completeness.translate_sem`` and
so on) and puts the originals back afterwards. Each call through a wrapper
becomes one span ``(name, start, end, parent span, op id)``; spans stay in
memory and are written out once, after the run.

``seman`` and ``semgen`` recurse through their module-level names, so a
wrapper that finds its own span already open forwards straight to the
original: one span covers one outermost call.
"""

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

# Stage spans inside ``translate``; the rest of its time is bookkeeping
# (dedup sets, well-typedness flags, canonical sorting).
TRANSLATE_STAGES = (
    "parsing.morsynan",
    "pipeline.seman",
    "pipeline.semgen",
    "pipeline.filter",
    "parsing.morsyngen",
)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index, self.name)
        return False


class Tracer:
    """In-memory spans and counters; disabled, it records nothing.

    Span fields live in parallel arrays (a few tens of bytes per span), since
    a traced pass of the checking workload records hundreds of thousands.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.counts: Counter = Counter()
        self.names: list[str] = []
        self.ops: list[str | None] = [None]
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self._name_ids: dict[str, int] = {}
        self._op = 0
        self._stack: list[int] = []
        self._names_open: set[str] = set()

    def __len__(self) -> int:
        return len(self.start)

    def set_op(self, op: str | None) -> None:
        """Spans opened from now on belong to request ``op``."""
        if op is None:
            self._op = 0
        else:
            self._op = len(self.ops)
            self.ops.append(op)

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def _open(self, name: str) -> int:
        index = len(self.start)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self._op)
        self.end.append(0.0)
        self._stack.append(index)
        self._names_open.add(name)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int, name: str) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()
        self._names_open.discard(name)

    def name(self, index: int) -> str:
        return self.names[self.name_of[index]]

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(counts, args, result)`` adds counts."""

        def wrapper(*args, **kwargs):
            if name in self._names_open:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON line ``[name, start, end, parent, op]``, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = [json.dumps(n) for n in self.names]
        ops = [json.dumps(o) for o in self.ops]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for i in range(len(self.start)):
                f.write(
                    f"[{names[self.name_of[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{ops[self.op_of[i]]}]\n"
                )


def _count_filter(counts, args, result):
    counts["pipeline.filter_calls"] += 1
    counts["pipeline.filter_kept"] += bool(result)


def _count_len(counter: str):
    def on_result(counts, args, result):
        counts[counter] += len(result)

    return on_result


def _count_morsynan(counts, args, result):
    counts["parsing.tokens"] += len(tuple(args[1]))
    counts["parsing.source_trees"] += len(result)


def _count_call(counter: str):
    def on_result(counts, args, result):
        counts[counter] += 1

    return on_result


class Patches:
    """Timing wrappers installed at the library's module-level names."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object, bool]] = []

    def _put(self, module, attr: str, wrapper) -> None:
        had = attr in vars(module)
        self._saved.append((module, attr, vars(module).get(attr), had))
        setattr(module, attr, wrapper)

    def _wrap(self, module, attr: str, name: str, on_result=None) -> None:
        self._put(module, attr, self.tracer.wrap(getattr(module, attr), name, on_result))

    def install_loader(self, loader) -> None:
        """Validation the loader runs on every block it reads."""
        self._wrap(loader, "validate_grammar", "model.validate")
        self._wrap(loader, "validate_semantics", "model.validate")

    def install_ops(self, pipeline, completeness) -> None:
        t = self.tracer
        self._wrap(pipeline, "morsynan", "parsing.morsynan", _count_morsynan)
        self._wrap(pipeline, "seman", "pipeline.seman", _count_len("pipeline.sem_trees"))
        self._wrap(pipeline, "semgen", "pipeline.semgen", _count_len("pipeline.target_candidates"))
        self._wrap(pipeline, "is_cfg_well_formed", "pipeline.filter", _count_filter)
        self._wrap(pipeline, "morsyngen", "parsing.morsyngen")
        # translate sorts its distinct sets with sorted(..., key=tree_key);
        # a module global named ``sorted`` shadows the builtin for pipeline only
        tree_key = pipeline.tree_key
        timed_sort = t.wrap(sorted, "trees.canonical_sort")

        def pipeline_sorted(iterable, /, *, key=None, reverse=False):
            if key is tree_key:
                return timed_sort(iterable, key=key, reverse=reverse)
            return sorted(iterable, key=key, reverse=reverse)

        self._put(pipeline, "sorted", pipeline_sorted)
        self._wrap(completeness, "enumerate_sem_trees", "trees.enumerate", _count_len("trees.enumerated"))
        self._wrap(
            completeness,
            "well_formed_sem_trees",
            "pipeline.well_formed_sem_trees",
            _count_len("completeness.witness_candidates"),
        )
        self._wrap(
            completeness, "translate_sem", "pipeline.translate_sem", _count_call("pipeline.translate_sem_calls")
        )

    def remove(self) -> None:
        for module, attr, original, had in reversed(self._saved):
            if had:
                setattr(module, attr, original)
            else:
                delattr(module, attr)
        self._saved.clear()
