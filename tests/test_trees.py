"""Derivation trees: categories, well-formedness, enumeration, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptrans import (
    ComptransError,
    SemLeaf,
    SemNode,
    SynLeaf,
    SynNode,
    UnknownNameError,
    enumerate_sem_trees,
    enumerate_syn_trees,
    format_tree,
    is_cfg_well_formed,
    is_sem_well_typed,
    load_pair,
    parse_sem_tree,
    parse_syn_tree,
    random_sem_tree,
    sem_cat,
    sem_tree_from_json,
    syn_cat,
    syn_tree_from_json,
    tree_depth,
    tree_key,
    tree_to_json,
)
from comptrans import trees
from conftest import FIXTURES
from oracles import canonical_key, naive_sem_trees, naive_syn_trees


def test_syn_cat(paper_grammar):
    assert syn_cat(paper_grammar, SynLeaf("b")) == "B"
    assert syn_cat(paper_grammar, SynNode("R2", (SynLeaf("b"),))) == "A"
    # category is defined even for ill-formed trees: only the top node is read
    assert syn_cat(paper_grammar, SynNode("R1", (SynLeaf("b"),))) == "A"
    with pytest.raises(UnknownNameError):
        syn_cat(paper_grammar, SynLeaf("zzz"))


def test_is_cfg_well_formed(paper_grammar):
    g = paper_grammar
    assert is_cfg_well_formed(g, SynLeaf("b"))
    assert is_cfg_well_formed(g, SynNode("R1", (SynLeaf("b"), SynLeaf("c"))))
    # argument order matters: ⟨C,B⟩ does not match ⟨B,C⟩
    assert not is_cfg_well_formed(g, SynNode("R1", (SynLeaf("c"), SynLeaf("b"))))
    # wrong arity
    assert not is_cfg_well_formed(g, SynNode("R1", (SynLeaf("b"),)))
    with pytest.raises(UnknownNameError):
        is_cfg_well_formed(g, SynNode("R9", (SynLeaf("b"),)))
    # every name is looked up, also past a child that already fails to fit
    with pytest.raises(UnknownNameError):
        is_cfg_well_formed(g, parse_syn_tree("R1(c, zzz)"))
    with pytest.raises(UnknownNameError):
        is_cfg_well_formed(g, parse_syn_tree("R1(b, zzz)"))


def test_sem_cat(paper_grammar):
    sc = paper_grammar.semantics
    assert sem_cat(sc, SemLeaf("m1")) == "Bbar"
    assert sem_cat(sc, SemNode("M1", (SemLeaf("m1"), SemLeaf("m2a")))) == "Abar"
    assert sem_cat(sc, SemNode("M2a", (SemLeaf("m1"),))) == "Abar"


def test_is_sem_well_typed(paper_grammar):
    sc = paper_grammar.semantics
    assert is_sem_well_typed(sc, SemLeaf("m1"))
    assert is_sem_well_typed(sc, SemNode("M1", (SemLeaf("m1"), SemLeaf("m2b"))))
    assert not is_sem_well_typed(sc, SemNode("M1", (SemLeaf("m2a"), SemLeaf("m1"))))


def test_enumerate_syn_trees_examples(paper_grammar):
    g = paper_grammar
    assert enumerate_syn_trees(g, "B", 1) == [SynLeaf("b")]
    assert enumerate_syn_trees(g, "A", 1) == []
    assert enumerate_syn_trees(g, "A", 2) == [
        SynNode("R1", (SynLeaf("b"), SynLeaf("c"))),
        SynNode("R2", (SynLeaf("b"),)),
        SynNode("R3", (SynLeaf("b"), SynLeaf("c"))),
    ]
    with pytest.raises(UnknownNameError):
        enumerate_syn_trees(g, "Zed", 2)


def test_enumerate_sem_trees_examples(paper_grammar, enfr):
    sc = paper_grammar.semantics
    assert enumerate_sem_trees(sc, "Bbar", 1) == [SemLeaf("m1")]
    got = [format_tree(d) for d in enumerate_sem_trees(sc, "Abar", 2)]
    assert got == [
        "M1(m1, m2a)",
        "M1(m1, m2b)",
        "M2a(m1)",
        "M2b(m1)",
        "M3a(m1, m2a)",
        "M3a(m1, m2b)",
        "M3b(m1, m2a)",
        "M3b(m1, m2b)",
    ]
    np_sem = enfr.pair.source.semantics
    assert [format_tree(d) for d in enumerate_sem_trees(np_sem, "NPbar", 2)] == [
        "M1(def, cat)",
        "M1(def, house)",
    ]


def test_enumeration_matches_naive_oracle(paper_grammar, enfr):
    for g in (paper_grammar, enfr.pair.source, enfr.pair.target):
        for cat in g.categories:
            for depth in (1, 2, 3, 5):
                got = enumerate_syn_trees(g, cat, depth)
                assert set(got) == naive_syn_trees(g, cat, depth)
                assert all(is_cfg_well_formed(g, t) for t in got)
        sc = g.semantics
        for cat in sc.categories:
            for depth in (1, 2, 4):
                got = enumerate_sem_trees(sc, cat, depth)
                assert set(got) == naive_sem_trees(sc, cat, depth)
                assert all(is_sem_well_typed(sc, d) for d in got)


def test_enumeration_monotone_in_depth(paper_grammar):
    g = paper_grammar
    for cat in g.categories:
        for depth in range(1, 6):
            assert set(enumerate_syn_trees(g, cat, depth)) <= set(
                enumerate_syn_trees(g, cat, depth + 1)
            )
    sc = g.semantics
    for cat in sc.categories:
        for depth in range(1, 6):
            assert set(enumerate_sem_trees(sc, cat, depth)) <= set(
                enumerate_sem_trees(sc, cat, depth + 1)
            )


def test_depth_convention(paper_grammar):
    assert tree_depth(SynLeaf("b")) == 1
    assert tree_depth(SynNode("R2", (SynLeaf("b"),))) == 2
    for t in enumerate_syn_trees(paper_grammar, "A", 2):
        assert tree_depth(t) == 2


def test_random_sem_tree_fixed_cases(paper_grammar):
    sc = paper_grammar.semantics
    for seed in (0, 1, 99):
        assert random_sem_tree(sc, "Bbar", 1, seed) == SemLeaf("m1")
        assert random_sem_tree(sc, "Abar", 1, seed) is None


def test_sampling_runs_the_state_fixpoint_once_per_signature(monkeypatch):
    sc = load_pair(FIXTURES / "enfr-np.cgp").pair.source.semantics  # fresh, so nothing is cached yet
    calls = []
    state_rounds = trees.state_rounds
    monkeypatch.setattr(trees, "state_rounds", lambda *a: calls.append(a) or state_rounds(*a))
    samples = [random_sem_tree(sc, "NPbar", 4, seed) for seed in range(20)]
    assert len(calls) == 1
    assert all(sem_cat(sc, d) == "NPbar" for d in samples)


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1), depth=st.integers(min_value=1, max_value=5))
def test_random_sem_tree_is_well_typed_and_enumerable(enfr, seed, depth):
    sc = enfr.pair.source.semantics
    for cat in sc.categories:
        t = random_sem_tree(sc, cat, depth, seed)
        if t is None:
            continue
        assert is_sem_well_typed(sc, t)
        assert sem_cat(sc, t) == cat
        assert t in enumerate_sem_trees(sc, cat, depth)
        # deterministic per seed
        assert random_sem_tree(sc, cat, depth, seed) == t


def test_text_round_trip(paper_grammar):
    for t in enumerate_syn_trees(paper_grammar, "A", 3):
        assert parse_syn_tree(format_tree(t)) == t
    for d in enumerate_sem_trees(paper_grammar.semantics, "Abar", 3):
        assert parse_sem_tree(format_tree(d)) == d
    assert format_tree(parse_syn_tree("R1(b, c)")) == "R1(b, c)"
    assert parse_syn_tree("b") == SynLeaf("b")
    # zero-child node text stays a node, not a leaf
    assert parse_syn_tree("R1()") == SynNode("R1", ())


def test_json_round_trip(paper_grammar):
    t = SynNode("R1", (SynLeaf("b"), SynLeaf("c")))
    assert tree_to_json(t) == {
        "rule": "R1",
        "children": [{"basic": "b"}, {"basic": "c"}],
    }
    assert syn_tree_from_json(tree_to_json(t)) == t
    d = SemNode("M1", (SemLeaf("m1"), SemLeaf("m2a")))
    assert sem_tree_from_json(tree_to_json(d)) == d


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"meaning": 5}, "tree JSON 'meaning' must be a string, got int"),
        ({"rule": ["F"]}, "tree JSON 'rule' must be a string, got list"),
        ({"rule": "F", "children": None}, "tree JSON 'children' must be a list, got NoneType"),
        ({"rule": "F", "children": [{"meaning": None}]}, "tree JSON 'meaning' must be a string, got NoneType"),
        # a leaf has no rule and no children, so neither is dropped unread
        (
            {"meaning": "x", "children": [{"meaning": "y"}]},
            "tree JSON with a 'meaning' key is a leaf and has no 'rule' or 'children': "
            "{'meaning': 'x', 'children': [{'meaning': 'y'}]}",
        ),
        (
            {"meaning": "x", "rule": "R", "children": [{"meaning": "y"}]},
            "tree JSON with a 'meaning' key is a leaf and has no 'rule' or 'children': "
            "{'meaning': 'x', 'rule': 'R', 'children': [{'meaning': 'y'}]}",
        ),
    ],
)
def test_json_reader_rejects_names_and_children_of_the_wrong_type(obj, message):
    with pytest.raises(ComptransError) as err:
        sem_tree_from_json(obj)
    assert str(err.value) == message


NAMES = st.sampled_from("abc")


def trees_of(leaf, node):
    """Random trees whose nodes have 1 to 3 children, over a few shared names."""
    return st.recursive(
        st.builds(leaf, NAMES),
        lambda kids: st.builds(node, NAMES, st.lists(kids, min_size=1, max_size=3).map(tuple)),
        max_leaves=12,
    )


@given(st.lists(trees_of(SynLeaf, SynNode)), st.lists(trees_of(SemLeaf, SemNode)))
def test_trees_sort_in_canonical_order(syn, sem):
    for ts in (syn, sem):
        assert sorted(ts) == sorted(ts, key=canonical_key) == sorted(ts, key=tree_key)


def test_leaf_sorts_before_nullary_node_of_its_name():
    # the one place the tree order refines canonical_key, which ties the two
    for leaf, node in ((SynLeaf("x"), SynNode("x", ())), (SemLeaf("x"), SemNode("x", ()))):
        assert canonical_key(leaf) == canonical_key(node)
        assert leaf != node
        assert leaf < node
        assert sorted([node, leaf]) == [leaf, node]
