"""Semantic analysis/generation and the end-to-end translation pipeline."""

import pytest

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
    seman,
    semgen,
    translate,
    translate_sem,
    tree_depth,
    validate_grammar,
    well_formed_sem_trees,
)
from oracles import generable_utterances, shared_wellformed_sem_trees


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


def test_translate_checks_each_candidate_once(enfr, monkeypatch):
    # the filter's check is the only one: kept trees are generated without another
    import comptrans.parsing
    import comptrans.pipeline

    checked = []
    monkeypatch.setattr(comptrans.parsing, "is_cfg_well_formed", lambda g, t: checked.append(t) or True)
    monkeypatch.setattr(
        comptrans.pipeline, "is_cfg_well_formed", lambda g, t: checked.append(t) or is_cfg_well_formed(g, t)
    )
    trace = translate(enfr.pair, "the cat".split())
    assert trace.target_utterances == (("le", "chat"),)
    assert sorted(checked) == [t for t, _ in trace.target_trees]


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
