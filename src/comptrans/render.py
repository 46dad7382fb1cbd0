"""Text and JSON renderings of trees, traces, and reports.

JSON documents are schema-stable across runs: fixed key sets, canonical
ordering of every list, and a format version stamped into each envelope. The
shipped ``report.schema.json`` describes every document this module emits.

The ``*_to_json`` builders give one document per call, built by
:func:`~comptrans.trees.tree_to_json`'s builder over one identity memo: a
subtree object met again anywhere in it is one shared dict. Documents are
therefore read-only; copy one before changing any part of it.

:func:`dump_json` returns exactly the text of ``json.dumps(doc, indent=2,
sort_keys=True, ensure_ascii=False)``, for any document of string-keyed
dicts, lists, tuples and scalars, nested to any depth. It writes a
container's text the first time it meets the container and reuses that text
each time the same object appears again, so a shared subtree is serialized
once.
"""

import json
from importlib import resources
from json.encoder import encode_basestring

from .completeness import CompletenessReport
from .pipeline import TranslationTrace
from .trees import Tree, _to_json, format_tree

FORMAT_VERSION = "1"


def schema() -> dict:
    """The JSON schema every CLI JSON document validates against."""
    text = resources.files("comptrans").joinpath("report.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


_END = object()


def dump_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)``, byte for byte.

    ``doc`` is built of dicts with string keys, lists, tuples, strings, ints,
    floats, booleans and None; anything else raises the stdlib's
    ``TypeError``, and a container inside itself raises ``ValueError``. The
    walk keeps its own stack, so nesting depth is bounded by memory, not by
    the recursion limit. Each container's text is the run of pieces between
    its brackets; when the same object appears again, that run is joined
    once and reused, re-indented if it now sits at another depth (string
    escapes leave no raw newline, so every newline in it starts a line).
    """
    out: list[str] = []
    spans: dict[int, tuple | None] = {}  # container -> (depth, first piece, end), None while open
    texts: dict[int, str] = {}  # container met twice -> its text at the depth in spans
    pads: list[tuple[str, str, str, str]] = []  # depth -> (first item's separator, a later one's, closings)
    stack: list = []  # open containers: (id, depth, first piece, items, is dict, separators, closing)
    labels: dict[str, str] = {}  # dict key -> its text and the colon after it
    value, depth = doc, 0
    while True:
        if isinstance(value, str):
            out.append(encode_basestring(value))
        elif value is None:
            out.append("null")
        elif value is True:
            out.append("true")
        elif value is False:
            out.append("false")
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        elif isinstance(value, (list, tuple, dict)):
            key = id(value)
            if not value:
                out.append("{}" if isinstance(value, dict) else "[]")
            elif key in spans:
                if spans[key] is None:
                    raise ValueError("Circular reference detected")
                at, first, end = spans[key]
                text = texts.get(key)
                if text is None:
                    text = texts[key] = "".join(out[first:end])
                if depth > at:
                    text = text.replace("\n", "\n" + "  " * (depth - at))
                elif depth < at:
                    text = text.replace("\n" + "  " * (at - depth), "\n")
                out.append(text)
            else:
                while len(pads) <= depth + 1:
                    pad = "\n" + "  " * len(pads)
                    pads.append((pad, "," + pad, pad + "}", pad + "]"))
                is_dict = isinstance(value, dict)
                out.append("{" if is_dict else "[")
                items = iter(sorted(value.items())) if is_dict else iter(value)
                closing = pads[depth][2 if is_dict else 3]
                stack.append((key, depth, len(out) - 1, items, is_dict, pads[depth + 1], closing))
                spans[key] = None
        else:
            out.append(json.dumps(value))  # a float's text, or the stdlib's TypeError
        while stack:  # find the next value, closing each container it leaves
            key, at, first, items, is_dict, (first_sep, sep, _, _), closing = stack[-1]
            item = next(items, _END)
            if item is _END:
                stack.pop()
                out.append(closing)
                spans[key] = (at, first, len(out))
                continue
            if len(out) - 1 == first:
                sep = first_sep
            if is_dict:
                name, value = item
                label = labels.get(name)
                if label is None:
                    label = labels[name] = encode_basestring(name) + ": "
                out.append(sep)
                out.append(label)
            else:
                out.append(sep)
                value = item
            depth = at + 1
            break
        else:
            return "".join(out)


def envelope(command: str, **payload) -> dict:
    return {"command": command, "format_version": FORMAT_VERSION, **payload}


def trees_to_json(trees) -> list[dict]:
    """The JSON form of each tree, a subtree object shared across the list being one dict."""
    memo: dict = {}
    return [_to_json(t, memo) for t in trees]


def _report_doc(report: CompletenessReport, memo: dict) -> dict:
    violations = []
    for v in report.violations:
        doc = {"kind": v.kind, "message": v.message}
        for field in ("source", "meaning", "rule", "category"):
            if getattr(v, field) is not None:
                doc[field] = getattr(v, field)
        if v.arg_tuple is not None:
            doc["arg_tuple"] = list(v.arg_tuple)
        if v.sem_tree is not None:
            doc["sem_tree"] = _to_json(v.sem_tree, memo)
        violations.append(doc)
    return {
        "condition": report.condition,
        "verdict": report.verdict,
        "violations": violations,
        "witness": None if report.witness is None else _to_json(report.witness, memo),
        "subreports": [_report_doc(r, memo) for r in report.subreports],
    }


def report_to_json(report: CompletenessReport) -> dict:
    return _report_doc(report, {})


def report_to_text(report: CompletenessReport, heading: str) -> str:
    lines = [f"{heading}: {report.verdict.upper()}"]
    for v in report.violations:
        lines.append(f"  - [{v.kind}] {v.message}")
    if report.witness is not None:
        lines.append(f"  witness: {format_tree(report.witness)}")
    return "\n".join(lines)


def trace_to_json(trace: TranslationTrace) -> dict:
    memo: dict = {}
    return {
        "source_trees": [_to_json(t, memo) for t in trace.source_trees],
        "sem_trees": [{"tree": _to_json(d, memo), "well_typed": ok} for d, ok in trace.sem_trees],
        "target_trees": [
            {"tree": _to_json(t, memo), "well_formed": ok} for t, ok in trace.target_trees
        ],
    }


def trace_to_text(trace: TranslationTrace) -> str:
    lines = [f"source utterance: {' '.join(trace.source_utterance)}"]
    lines.append(f"source trees ({len(trace.source_trees)}):")
    for t in trace.source_trees:
        lines.append(f"  {format_tree(t)}")
    lines.append(f"semantic trees ({len(trace.sem_trees)}):")
    for d, ok in trace.sem_trees:
        lines.append(f"  {format_tree(d)} [{'well-typed' if ok else 'ill-typed'}]")
    lines.append(f"target trees ({len(trace.target_trees)}):")
    for t, ok in trace.target_trees:
        lines.append(f"  {format_tree(t)} [{'well-formed' if ok else 'ill-formed'}]")
    lines.append(f"translations ({len(trace.target_utterances)}):")
    for u in trace.target_utterances:
        lines.append(f"  {' '.join(u)}")
    return "\n".join(lines)


def trees_to_text(trees: list[Tree]) -> str:
    return "\n".join(format_tree(t) for t in trees)
