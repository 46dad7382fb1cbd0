"""Semantic analysis/generation and the end-to-end translation pipeline."""

from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptrans import (
    AmbiguityCapError,
    BasicExpression,
    BasicMeaning,
    CompositionalGrammar,
    SemanticComponent,
    SemLeaf,
    SemNode,
    SemRule,
    SynLeaf,
    SynNode,
    SyntacticRule,
    UnknownNameError,
    enumerate_syn_trees,
    format_tree,
    is_cfg_well_formed,
    is_sem_well_typed,
    is_well_formed_sem_tree,
    morsynan,
    morsyngen,
    parse_sem_tree,
    parse_syn_tree,
    seman,
    semgen,
    translate,
    translate_sem,
    tree_depth,
    validate_grammar,
    validate_pair,
    validate_semantics,
    well_formed_sem_trees,
)
from comptrans.model import Relabelling, Signature
from comptrans.parsing import _generate
from oracles import generable_utterances, shared_wellformed_sem_trees, translate_by_tree

MIRROR_WORDS = "abcdefghi"


@pytest.fixture(scope="module")
def mirror():
    """``S -> S S`` read as ``$1 $2`` and written as ``$2 $1``: n words have Catalan(n-1) parses."""
    sc = validate_semantics(
        SemanticComponent(
            "mirror-sem",
            ("Sbar",),
            tuple(BasicMeaning(f"m{w}", "Sbar") for w in MIRROR_WORDS),
            (SemRule("C", ("Sbar", "Sbar"), "Sbar"),),
        )
    )

    def grammar(name, template):
        basics = tuple(BasicExpression(f"{name}{w}", "S", (f"{name}{w}",), (f"m{w}",)) for w in MIRROR_WORDS)
        rules = (SyntacticRule("R", ("S", "S"), "S", template, ("C",)),)
        return validate_grammar(CompositionalGrammar(name, ("S",), basics, rules, sc))

    return validate_pair(grammar("x", (1, 2)), grammar("y", (2, 1)))


def distinct_subtrees(trees) -> int:
    """Subtree objects reachable from ``trees``, each counted once however often it is shared."""
    seen: set[int] = set()
    stack = list(trees)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t.children)
    return len(seen)


def shape(tree):
    children = getattr(tree, "children", ())
    return tuple(shape(c) for c in children)


def test_seman_examples(paper_grammar):
    g = paper_grammar
    assert seman(g, SynLeaf("b")) == [SemLeaf("m1")]
    assert seman(g, SynNode("R2", (SynLeaf("b"),))) == [
        SemNode("M2a", (SemLeaf("m1"),)),
        SemNode("M2b", (SemLeaf("m1"),)),
    ]
    assert seman(g, SynNode("R1", (SynLeaf("b"), SynLeaf("c")))) == [
        SemNode("M1", (SemLeaf("m1"), SemLeaf("m2a"))),
        SemNode("M1", (SemLeaf("m1"), SemLeaf("m2b"))),
    ]
    with pytest.raises(UnknownNameError):
        seman(g, SynLeaf("zzz"))


def test_semgen_examples(paper_grammar, enfr):
    assert semgen(paper_grammar, SemLeaf("m1")) == [SynLeaf("b")]
    # M2a appears only in R2's interpretation
    assert semgen(paper_grammar, SemNode("M2a", (SemLeaf("m1"),))) == [
        SynNode("R2", (SynLeaf("b"),))
    ]
    fr = enfr.pair.target
    got = semgen(fr, SemNode("M1", (SemLeaf("def"), SemLeaf("cat"))))
    # both rules times both determiners; only R1a(le, chat) is well-formed
    assert [format_tree(t) for t in got] == [
        "R1a(la, chat)",
        "R1a(le, chat)",
        "R1b(la, chat)",
        "R1b(le, chat)",
    ]
    assert [format_tree(t) for t in got if is_cfg_well_formed(fr, t)] == ["R1a(le, chat)"]


def test_stages_follow_name_order_whatever_the_declaration_order():
    # API callers may list symbols and carried meanings in any order
    sc = SemanticComponent(
        "s",
        ("X",),
        (BasicMeaning("b", "X"), BasicMeaning("a", "X")),
        (SemRule("G", ("X",), "X"), SemRule("F", ("X",), "X")),
    )
    g = validate_grammar(
        CompositionalGrammar(
            "g",
            ("V",),
            (BasicExpression("y", "V", ("y",), ("b", "a")), BasicExpression("x", "V", ("x",), ("b",))),
            (SyntacticRule("R", ("V",), "V", ("r", 1), ("G", "F")),),
            sc,
        )
    )
    assert seman(g, SynNode("R", (SynLeaf("y"),))) == [
        SemNode("F", (SemLeaf("a"),)),
        SemNode("F", (SemLeaf("b"),)),
        SemNode("G", (SemLeaf("a"),)),
        SemNode("G", (SemLeaf("b"),)),
    ]
    assert semgen(g, SemNode("G", (SemLeaf("b"),))) == [SynNode("R", (SynLeaf("x"),)), SynNode("R", (SynLeaf("y"),))]


def test_semgen_empty_result_is_legal(enfr_broken):
    target = enfr_broken.pair.target
    # maison is still in the lexicon, but no rule can host an Nf noun phrase
    d = SemNode("M1", (SemLeaf("def"), SemLeaf("house")))
    candidates = semgen(target, d)
    assert candidates  # raw candidates exist
    assert [t for t in candidates if is_cfg_well_formed(target, t)] == []


def test_geometry_preserved(paper_grammar):
    g = paper_grammar
    for cat in g.categories:
        for t in enumerate_syn_trees(g, cat, 4):
            for d in seman(g, t):
                assert shape(d) == shape(t)
                for t2 in semgen(g, d):
                    assert shape(t2) == shape(d)


def test_duality_on_small_trees(paper_grammar, enfr):
    for g in (paper_grammar, enfr.pair.source, enfr.pair.target):
        for cat in g.categories:
            for t in enumerate_syn_trees(g, cat, 4):
                for d in seman(g, t):
                    assert t in semgen(g, d)


def test_translate_identity(identity):
    trace = translate(identity.pair, "a b d".split())
    assert ("a", "b", "d") in trace.target_utterances


def test_translate_enfr_examples(enfr):
    assert translate(enfr.pair, "the cat".split()).target_utterances == (("le", "chat"),)
    assert translate(enfr.pair, "the house".split()).target_utterances == (("la", "maison"),)
    assert translate(enfr.pair, "the the".split()).target_utterances == ()


def test_trace_records_every_stage(enfr):
    trace = translate(enfr.pair, "the cat".split())
    assert trace.source_utterance == ("the", "cat")
    assert [format_tree(t) for t in trace.source_trees] == ["R1(the, cat)"]
    assert [(format_tree(d), ok) for d, ok in trace.sem_trees] == [("M1(def, cat)", True)]
    assert [(format_tree(t), ok) for t, ok in trace.target_trees] == [
        ("R1a(la, chat)", False),
        ("R1a(le, chat)", True),
        ("R1b(la, chat)", False),
        ("R1b(le, chat)", False),
    ]
    # the trace invariant: translations are exactly the well-formed targets' yields
    tgt = enfr.pair.target
    regenerated = sorted({morsyngen(tgt, t) for t, ok in trace.target_trees if ok})
    assert list(trace.target_utterances) == regenerated


def spy_on_checks(monkeypatch) -> list:
    """Every tree given to a well-formedness check through the stages' names, in call order."""
    import comptrans.parsing
    import comptrans.pipeline

    checked = []
    monkeypatch.setattr(comptrans.parsing, "is_cfg_well_formed", lambda g, t, *memo: checked.append(t) or True)
    monkeypatch.setattr(
        comptrans.pipeline,
        "is_cfg_well_formed",
        lambda g, t, *memo: checked.append(t) or is_cfg_well_formed(g, t, *memo),
    )
    return checked


def test_translate_checks_each_candidate_once(enfr, monkeypatch):
    # the filter's check is the only one: kept trees are generated without another
    checked = spy_on_checks(monkeypatch)
    trace = translate(enfr.pair, "the cat".split())
    assert trace.target_utterances == (("le", "chat"),)
    assert sorted(checked) == [t for t, _ in trace.target_trees]


def test_translate_sem_checks_each_candidate_once(enfr, monkeypatch):
    checked = spy_on_checks(monkeypatch)
    d = SemNode("M1", (SemLeaf("def"), SemLeaf("house")))
    assert translate_sem(enfr.pair, d) == [("la", "maison")]
    assert sorted(checked) == semgen(enfr.pair.target, d)


@settings(max_examples=40, deadline=None)
@given(words=st.lists(st.sampled_from(MIRROR_WORDS), min_size=2, max_size=8))
def test_translate_matches_the_per_tree_path_on_the_mirror_pair(mirror, words):
    utterance = [f"x{w}" for w in words]
    assert translate(mirror, utterance) == translate_by_tree(mirror, utterance)


def test_each_stage_handles_each_distinct_subtree_once(mirror, monkeypatch):
    calls: Counter = Counter()
    images, symbol = Relabelling.images, Signature.symbol
    monkeypatch.setattr(Relabelling, "images", lambda self, *a: calls.update([id(self)]) or images(self, *a))
    monkeypatch.setattr(Signature, "symbol", lambda self, *a: calls.update([id(self)]) or symbol(self, *a))
    src, tgt = mirror.source, mirror.target
    trace = translate(mirror, [f"x{w}" for w in MIRROR_WORDS])
    sem_trees = [d for d, _ in trace.sem_trees]
    target_trees = [t for t, _ in trace.target_trees]
    assert len(trace.source_trees) == len(sem_trees) == len(target_trees) == 1430
    # 1,430 parses of 17 nodes each, built from 2,983 distinct subtrees; the
    # images of every stage share subtrees just as the chart's parses do
    sizes = [distinct_subtrees(ts) for ts in (trace.source_trees, sem_trees, target_trees)]
    assert sizes == [2983] * 3
    assert calls[id(src.interpretation)] <= 2983  # seman
    assert calls[id(src.semantics.signature)] <= 2983  # the well-typedness flag
    assert calls[id(tgt.inverse_interpretation)] <= 2983  # semgen
    assert calls[id(tgt.signature)] <= 2983  # the filter


@pytest.mark.parametrize("stage", ["seman", "typed", "semgen", "filter", "generate"])
def test_a_memo_outliving_its_trees_gives_fresh_results(enfr, stage):
    # each tree is dropped before the next is built, which may then take its
    # memory and so its id; the memo pins the trees it holds, so no entry is
    # mistaken for another tree's
    src, tgt = enfr.pair.source, enfr.pair.target
    sem_trees = sorted({d for cat in src.categories for t in enumerate_syn_trees(src, cat, 3) for d in seman(src, t)})
    candidates = [t for d in sem_trees for t in semgen(tgt, d)]  # well-formed and ill-formed
    ill_typed = parse_sem_tree("M1(cat, def)")
    call, trees, parse = {
        "seman": (partial(seman, tgt), candidates, parse_syn_tree),
        "typed": (partial(is_sem_well_typed, tgt.semantics), [*sem_trees, ill_typed], parse_sem_tree),
        "semgen": (partial(semgen, tgt), sem_trees, parse_sem_tree),
        "filter": (partial(is_cfg_well_formed, tgt), candidates, parse_syn_tree),
        "generate": (partial(_generate, tgt), [t for t in candidates if is_cfg_well_formed(tgt, t)], parse_syn_tree),
    }[stage]
    memo: dict = {}
    for text in map(format_tree, trees * 2):
        t = parse(text)
        got = call(t, memo)
        assert got == call(t), text
        if isinstance(got, list):
            got.clear()  # the caller's own list: the memo keeps its copy
            assert call(t, memo) == call(t), text
        del t, got


def test_translate_deterministic(enfr):
    first = translate(enfr.pair, "the house".split())
    second = translate(enfr.pair, "the house".split())
    assert first == second


def test_translate_propagates_ambiguity_cap(enfr):
    with pytest.raises(AmbiguityCapError):
        translate(enfr.pair, "the cat".split(), max_trees=1)


def test_translate_sem_examples(identity, enfr, enfr_broken):
    assert translate_sem(identity.pair, SemNode("M2b", (SemLeaf("m1"),))) == [("a", "b", "d")]
    d = SemNode("M1", (SemLeaf("def"), SemLeaf("house")))
    assert translate_sem(enfr.pair, d) == [("la", "maison")]
    assert translate_sem(enfr_broken.pair, d) == []


def test_translation_equivalence_oracle(identity, enfr):
    # an utterance pair is a translation exactly when the analyses share a
    # well-formed semantic derivation tree
    for pair in (identity.pair, enfr.pair):
        source_utts = sorted(generable_utterances(pair.source, 4))
        target_utts = sorted(generable_utterances(pair.target, 4))
        for e in source_utts:
            translated = set(translate(pair, e).target_utterances)
            for e2 in target_utts:
                shared = shared_wellformed_sem_trees(pair, e, e2, 4)
                assert (e2 in translated) == bool(shared), (e, e2)


def test_well_formed_sem_trees_identity(identity):
    got = [format_tree(d) for d in well_formed_sem_trees(identity.pair.source, 6)]
    assert got == [
        "m1",
        "m2a",
        "m2b",
        "M1(m1, m2a)",
        "M1(m1, m2b)",
        "M2a(m1)",
        "M2b(m1)",
        "M3a(m1, m2a)",
        "M3a(m1, m2b)",
        "M3b(m1, m2a)",
        "M3b(m1, m2b)",
    ]
    # smallest depth first, canonical within a depth
    depths = [tree_depth(d) for d in well_formed_sem_trees(identity.pair.source, 6)]
    assert depths == sorted(depths)


def test_well_formed_implies_well_typed_on_fixtures(identity, enfr):
    # these grammars interpret coherently, so the correspondence-based sense
    # is contained in the type-based sense
    for pair in (identity.pair, enfr.pair):
        sc = pair.source.semantics
        for d in well_formed_sem_trees(pair.source, 4):
            assert is_sem_well_typed(sc, d)
        assert is_well_formed_sem_tree(pair.source, SemLeaf(sc.meanings[0].name))


def test_every_parse_has_nonempty_analysis(paper_grammar, enfr):
    # interpretation sets are non-empty, so analysis of any parse is too
    for g in (paper_grammar, enfr.pair.source):
        for u in sorted(generable_utterances(g, 4)):
            for t in morsynan(g, u):
                assert seman(g, t)
        for cat in g.categories:
            for t in enumerate_syn_trees(g, cat, 4):
                assert seman(g, t)


def test_trace_stages_are_exact_unions(identity, enfr):
    # no stage prunes anything: each set is exactly the image of the previous
    for pair, utterance in ((identity.pair, "e c b"), (enfr.pair, "the house")):
        trace = translate(pair, utterance.split())
        assert set(trace.source_trees) == set(morsynan(pair.source, utterance.split()))
        expected_sem = {d for t in trace.source_trees for d in seman(pair.source, t)}
        assert {d for d, _ in trace.sem_trees} == expected_sem
        expected_tgt = {t for d in expected_sem for t in semgen(pair.target, d)}
        assert {t for t, _ in trace.target_trees} == expected_tgt
