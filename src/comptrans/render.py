"""Text and JSON renderings of trees, traces, and reports.

JSON documents are schema-stable across runs: fixed key sets, canonical
ordering of every list, and a format version stamped into each envelope. The
shipped ``report.schema.json`` describes every document this module emits.
"""

import json
from importlib import resources

from .completeness import CompletenessReport, Violation
from .pipeline import TranslationTrace
from .trees import Tree, format_tree, tree_to_json

FORMAT_VERSION = "1"


def schema() -> dict:
    """The JSON schema every CLI JSON document validates against."""
    text = resources.files("comptrans").joinpath("report.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)


def envelope(command: str, **payload) -> dict:
    return {"command": command, "format_version": FORMAT_VERSION, **payload}


def violation_to_json(v: Violation) -> dict:
    doc = {"kind": v.kind, "message": v.message}
    for field in ("source", "meaning", "rule", "category"):
        if getattr(v, field) is not None:
            doc[field] = getattr(v, field)
    if v.arg_tuple is not None:
        doc["arg_tuple"] = list(v.arg_tuple)
    if v.sem_tree is not None:
        doc["sem_tree"] = tree_to_json(v.sem_tree)
    return doc


def report_to_json(report: CompletenessReport) -> dict:
    return {
        "condition": report.condition,
        "verdict": report.verdict,
        "violations": [violation_to_json(v) for v in report.violations],
        "witness": None if report.witness is None else tree_to_json(report.witness),
        "subreports": [report_to_json(r) for r in report.subreports],
    }


def report_to_text(report: CompletenessReport, heading: str) -> str:
    lines = [f"{heading}: {report.verdict.upper()}"]
    for v in report.violations:
        lines.append(f"  - [{v.kind}] {v.message}")
    if report.witness is not None:
        lines.append(f"  witness: {format_tree(report.witness)}")
    return "\n".join(lines)


def trace_to_json(trace: TranslationTrace) -> dict:
    return {
        "source_trees": [tree_to_json(t) for t in trace.source_trees],
        "sem_trees": [
            {"tree": tree_to_json(d), "well_typed": ok} for d, ok in trace.sem_trees
        ],
        "target_trees": [
            {"tree": tree_to_json(t), "well_formed": ok} for t, ok in trace.target_trees
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
