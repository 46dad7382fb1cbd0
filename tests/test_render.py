"""JSON documents: the emitter against the stdlib, and shared tree parts."""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptrans import (
    enumerate_syn_trees,
    load_pair,
    parse_file,
    parse_sem_tree,
    translate,
    tree_to_json,
    validate_pair,
)
from comptrans.render import dump_json, trace_to_json, trees_to_json
from conftest import FIXTURES, MIRROR_WORDS


def stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)


# names with quotes, backslashes, control characters and non-ASCII text
texts = st.text(st.sampled_from('ab"\\/\n\r\t\x00\x1f\x7f é€ 😀') | st.characters(), max_size=8)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | texts


def documents(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(texts, inner, max_size=4),
        max_leaves=25,
    )


SLOT = object()  # where a drawn document holds the shared part


def fill(doc, part):
    if doc is SLOT:
        return part
    if isinstance(doc, dict):
        return {k: fill(v, part) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(fill(v, part) for v in doc)
    return doc


@st.composite
def documents_sharing_one_part(draw, plain=documents(scalars), slotted=documents(scalars | st.just(SLOT))):
    part = draw(plain)
    doc = fill(draw(slotted), part)
    # the same object at several positions and depths, whatever ``doc`` drew
    return {"doc": doc, "part": part, "deeper": [part, {"again": [part]}], "tuple": (part, doc)}


@settings(max_examples=200, deadline=None)
@given(documents_sharing_one_part())
def test_dump_json_matches_the_stdlib(doc):
    assert dump_json(doc) == stdlib(doc)


@pytest.mark.parametrize("make", [lambda d: [d], lambda d: {"k": d}, lambda d: {"a": [d, 1]}])
def test_cyclic_document_is_refused_like_the_stdlib(make):
    doc = {"x": []}
    doc["x"].append(make(doc))
    with pytest.raises(ValueError) as ours:
        dump_json(doc)
    with pytest.raises(ValueError) as theirs:
        stdlib(doc)
    assert str(ours.value) == str(theirs.value)


def test_unserializable_value_is_refused_like_the_stdlib():
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        dump_json({"a": [1, object()]})


@pytest.mark.parametrize("kind", ["list", "dict"])
def test_nesting_deeper_than_the_recursion_limit(kind):
    depth = 3_000
    doc = []
    for _ in range(depth):
        doc = [doc] if kind == "list" else {"k": doc}
    if kind == "list":
        lines = ["  " * i + "[" for i in range(depth)] + ["  " * depth + "[]"]
    else:
        lines = ["{"] + ["  " * i + '"k": {' for i in range(1, depth)] + ["  " * depth + '"k": []']
    closing = "]" if kind == "list" else "}"
    lines += ["  " * i + closing for i in reversed(range(depth))]
    assert dump_json(doc) == "\n".join(lines)
    # the expected text above follows the stdlib's layout, checked where it can recurse
    shallow = doc
    for _ in range(depth - 3):
        shallow = shallow[0] if kind == "list" else shallow["k"]
    assert dump_json(shallow) == stdlib(shallow)


SHARED_NAMES = """
semantics s
  semcat Nbar
  meaning house : Nbar
  mrule P : ( Nbar ) -> Nbar

grammar src uses s
  syncat N
  basic house : N = "house" => house
  rule P : ( N ) -> N = $1 "!" => P

grammar tgt uses s
  syncat N
  basic house : N = "maison" => house
  rule Q : ( N ) -> N = $1 "!" => P
"""


def test_trace_keeps_basics_and_meanings_of_one_name_apart():
    # SynLeaf("house") == SemLeaf("house") as tuples; a shared part must not cross kinds
    contents = parse_file(SHARED_NAMES)
    trace = translate(validate_pair(*contents.grammars), ["house", "!"])
    doc = trace_to_json(trace)
    assert doc["source_trees"] == [{"rule": "P", "children": [{"basic": "house"}]}]
    assert doc["sem_trees"] == [
        {"tree": {"rule": "P", "children": [{"meaning": "house"}]}, "well_typed": True}
    ]
    assert doc["target_trees"] == [
        {"tree": {"rule": "Q", "children": [{"basic": "house"}]}, "well_formed": True}
    ]
    # one dict per tree object within a document: the three ``house`` leaves are three objects
    dicts: dict = {}
    for t, part in zip(trace.source_trees, doc["source_trees"]):
        record_dicts(t, part, dicts)
    for (t, _), entry in [*zip(trace.sem_trees, doc["sem_trees"]), *zip(trace.target_trees, doc["target_trees"])]:
        record_dicts(t, entry["tree"], dicts)
    assert all(len(ids) == 1 for ids in dicts.values())
    assert len(set().union(*dicts.values())) == len(dicts) == 6


def record_dicts(tree, part, dicts: dict) -> None:
    """Add, for each tree object in ``tree``, the id of the dict ``part`` gives it to ``dicts[id(object)]``."""
    dicts.setdefault(id(tree), set()).add(id(part))
    for child, child_part in zip(tree.children, part.get("children", ())):
        record_dicts(child, child_part, dicts)


def test_equal_subtrees_are_one_part():
    trace = translate(load_pair(FIXTURES / "enfr-np.cgp").pair, "the house".split())
    doc = trace_to_json(trace)
    targets = [entry["tree"] for entry in doc["target_trees"]]
    # each target candidate has the same determiner options; equal ones are one dict
    leaves = {}
    for tree in targets:
        for child in tree["children"]:
            assert leaves.setdefault(json.dumps(child, sort_keys=True), child) is child
    docs = trees_to_json([trace.source_trees[0], trace.source_trees[0]])
    assert docs[0] is docs[1]


@pytest.mark.parametrize("case", ["enfr-np", "mirror", "enumerate", "parse tree", "load pair"])
def test_serializing_a_trace_leaves_no_cyclic_garbage(case, enfr, mirror):
    # every stage's memo and every intermediate tree go with the call that made them
    build = {
        "enfr-np": lambda: trace_to_json(translate(enfr.pair, "the house".split())),
        "mirror": lambda: trace_to_json(translate(mirror, [f"x{w}" for w in MIRROR_WORDS])),
        "enumerate": lambda: trees_to_json(enumerate_syn_trees(mirror.source, "S", 3)),
        "parse tree": lambda: tree_to_json(parse_sem_tree("M1(def, house)")),
        "load pair": lambda: load_pair(FIXTURES / "enfr-np.cgp").correspondence,
    }[case]
    gc.collect()
    gc.disable()
    try:
        text = dump_json(build())
        found = gc.collect()
    finally:
        gc.enable()
    assert text == stdlib(build())
    assert found == 0
