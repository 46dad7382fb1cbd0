"""Completeness checkers, label validation, and witness search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptrans import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    CategoryCorrespondence,
    CorrespondenceEntry,
    CorrespondenceError,
    SemLeaf,
    SemNode,
    TupleCapError,
    check_homomorphism,
    check_n1_completeness,
    check_nn_completeness,
    find_incompleteness_witness,
    format_tree,
    infer_n1_map,
    is_sem_well_typed,
    n1_correspondence,
    parse_file,
    translate_sem,
    validate_labels,
    validate_grammar,
    validate_pair,
    well_formed_sem_trees,
    witness_report,
)
from oracles import nn_by_matching
from test_labels import random_correspondence
from test_random_grammars import random_component, random_grammar

# source carries M1, target rules carry only M2: rule-level coverage fails
# while every interpretation set stays non-empty
TWO_RULE_COMPONENT = """
semantics two-rules
  semcat NPbar DETbar Nbar
  meaning def : DETbar
  meaning cat : Nbar
  mrule M1 : ( DETbar Nbar ) -> NPbar
  mrule M2 : ( DETbar Nbar ) -> NPbar

grammar src2 uses two-rules
  syncat NP DET N
  basic the : DET = "the" => def
  basic cat : N = "cat" => cat
  rule R1 : ( DET N ) -> NP = $1 $2 => M1

grammar tgt2 uses two-rules
  syncat NP2 DET2 N2
  basic le : DET2 = "le" => def
  basic chat : N2 = "chat" => cat
  rule R1p : ( DET2 N2 ) -> NP2 = $1 $2 => M2
"""

EMPTY_GRAMMAR = """
semantics s
  semcat X Y
  meaning x : X
  mrule F : ( X ) -> Y

grammar hollow uses s
  syncat P Q
"""


@pytest.fixture(scope="module")
def rule_gap_pair():
    contents = parse_file(TWO_RULE_COMPONENT)
    by_name = {g.name: g for g in contents.grammars}
    return validate_pair(by_name["src2"], by_name["tgt2"])


def test_homomorphism_identity(identity):
    assert check_homomorphism(identity.pair).verdict == "pass"


def test_homomorphism_enfr(enfr):
    assert check_homomorphism(enfr.pair).verdict == "pass"


def test_homomorphism_rule_violation(rule_gap_pair):
    report = check_homomorphism(rule_gap_pair)
    assert report.verdict == "fail"
    assert [(v.kind, v.source, v.rule) for v in report.violations] == [
        ("uncovered-semantic-rule", "R1", "M1")
    ]


def test_homomorphism_basic_violation(enfr_homviol):
    report = check_homomorphism(enfr_homviol.pair)
    assert report.verdict == "fail"
    assert [(v.kind, v.source, v.meaning) for v in report.violations] == [
        ("uncovered-basic-meaning", "house", "house")
    ]


# each grammar's carriers list their meanings in name order, which the
# loader keeps; a grammar built through the API may list them in any order
CARRIER_ORDER = """
semantics s
  semcat X
  meaning a : X
  meaning b : X
  meaning c : X
  meaning d : X

grammar src uses s
  syncat V
  basic w : V = "w" => a, d

grammar tgt uses s
  syncat V W
  basic u : V = "u" => b, c
  basic v : W = "v" => c
"""


def test_checks_walk_carried_meanings_in_name_order():
    src, tgt = (
        validate_grammar(g._replace(basics=tuple(b._replace(meanings=b.meanings[::-1]) for b in g.basics)))
        for g in parse_file(CARRIER_ORDER).grammars
    )
    assert src.basics[0].meanings == ("d", "a")
    pair = validate_pair(src, tgt)
    assert [v.meaning for v in check_homomorphism(pair).violations] == ["a", "d"]
    conflict = check_n1_completeness(pair).subreports[1].violations[0]
    assert "to 'V' (basic 'u' carries 'b')" in conflict.message
    typing = check_nn_completeness(pair, n1_correspondence({"X": "W"})).violations
    assert [v.meaning for v in typing if v.kind == "nn-typing-basic"] == ["b", "c"]


def test_infer_n1_map_paper(paper_grammar):
    corr = infer_n1_map(paper_grammar)
    assert corr is not None
    assert {cat: entry.categories for cat, entry in corr.entries} == {
        "Abar": ("A",),
        "Bbar": ("B",),
        "Cbar": ("C",),
    }
    assert all(entry.label == CONJUNCTIVE for _, entry in corr.entries)


def test_infer_n1_map_enfr_conflict(enfr):
    assert infer_n1_map(enfr.pair.target) is None
    report = check_n1_completeness(enfr.pair)
    assert report.verdict == "fail"
    conflicted = {v.category for v in report.violations if v.kind == "n1-conflict"}
    assert conflicted == {"DETbar", "Nbar"}


def test_infer_n1_map_unconstrained_fallback():
    g = parse_file(EMPTY_GRAMMAR).grammars[0]
    corr = infer_n1_map(g)
    assert corr is not None
    # nothing pins X or Y; both get the least target category
    assert {cat: entry.categories for cat, entry in corr.entries} == {"X": ("P",), "Y": ("P",)}


def test_n1_passes_on_identity(identity):
    report = check_n1_completeness(identity.pair)
    assert report.verdict == "pass"
    assert {sub.condition for sub in report.subreports} == {"homomorphism", "n1"}


def test_n1_fails_on_broken(enfr_broken):
    assert check_n1_completeness(enfr_broken.pair).verdict == "fail"


def test_nn_passes_on_enfr(enfr):
    assert check_nn_completeness(enfr.pair, enfr.correspondence).verdict == "pass"


def test_nn_fails_on_broken_citing_the_feminine_tuple(enfr_broken):
    report = check_nn_completeness(enfr_broken.pair, enfr_broken.correspondence)
    assert report.verdict == "fail"
    assert [(v.kind, v.rule, v.arg_tuple, v.category) for v in report.violations] == [
        ("missing-rule", "M1", ("Nf",), "NPp")
    ]


def test_nn_reduces_to_n1_on_singleton_conjunctive_sets(identity):
    nn = check_nn_completeness(identity.pair, identity.correspondence)
    n1 = check_n1_completeness(identity.pair)
    assert nn.verdict == n1.verdict == "pass"
    # and the declared singleton correspondence is the inferred map
    assert identity.correspondence == infer_n1_map(identity.pair.target)


def test_nn_typing_bullet_violations(enfr):
    # force NPp outside every correspondence set: rule typing breaks
    corr = CategoryCorrespondence(
        (
            ("DETbar", CorrespondenceEntry(("DETf", "DETm"), CONJUNCTIVE)),
            ("NPbar", CorrespondenceEntry(("DETm",), CONJUNCTIVE)),
            ("Nbar", CorrespondenceEntry(("Nf", "Nm"), DISJUNCTIVE)),
        )
    )
    report = check_nn_completeness(enfr.pair, corr)
    kinds = {v.kind for v in report.violations}
    assert "nn-typing-rule" in kinds


def test_nn_requires_full_coverage(enfr):
    partial = CategoryCorrespondence(
        (("DETbar", CorrespondenceEntry(("DETf", "DETm"), CONJUNCTIVE)),)
    )
    with pytest.raises(CorrespondenceError):
        check_nn_completeness(enfr.pair, partial)


NP = ("NPbar", CorrespondenceEntry(("NPp",), CONJUNCTIVE))


@pytest.mark.parametrize(
    "np_entries, message",
    [
        (
            [("NPbar", CorrespondenceEntry(("NPp",), "Conjunctive"))],
            "correspondence for 'NPbar' has label 'Conjunctive', not 'conjunctive' or 'disjunctive'",
        ),
        ([("NPbar", CorrespondenceEntry((), CONJUNCTIVE))], "correspondence set for 'NPbar' is empty"),
        ([NP, NP], "duplicate correspondence for semantic category 'NPbar'"),
        (
            [NP, ("Nope", CorrespondenceEntry(("NPp",), CONJUNCTIVE))],
            "correspondence names unknown semantic category 'Nope'",
        ),
        (
            [("NPbar", CorrespondenceEntry(("NPp", "NPq"), CONJUNCTIVE))],
            "correspondence for 'NPbar' names 'NPq', which grammar 'fr-np-broken' does not declare",
        ),
    ],
)
def test_every_check_rejects_an_invalid_api_built_correspondence(enfr_broken, np_entries, message):
    loaded = enfr_broken.correspondence
    corr = CategoryCorrespondence([e for e in loaded.entries if e[0] != "NPbar"] + np_entries)
    for check in (check_nn_completeness, validate_labels):
        with pytest.raises(CorrespondenceError) as err:
            check(enfr_broken.pair, corr)
        assert str(err.value) == message


def test_correspondences_are_canonical_when_built(enfr_broken):
    loaded = enfr_broken.correspondence
    # entries in reverse order, each set reversed with its first category repeated
    shuffled = CategoryCorrespondence(
        (c, CorrespondenceEntry(e.categories[::-1] + e.categories[:1], e.label)) for c, e in loaded.entries[::-1]
    )
    pair = enfr_broken.pair
    for check in (check_nn_completeness, validate_labels):
        assert check(pair, shuffled).violations == check(pair, loaded).violations
    assert shuffled == loaded
    # _replace builds through the same canonical form
    assert loaded._replace(entries=shuffled.entries[::-1]) == loaded
    assert loaded.entries[0][1]._replace(categories=("DETm", "DETf", "DETf")) == loaded.entries[0][1]


def test_nn_tuple_cap(enfr):
    with pytest.raises(TupleCapError):
        check_nn_completeness(enfr.pair, enfr.correspondence, tuple_cap=1)


def test_nn_tuple_cap_boundary(enfr):
    # M1 has one disjunctive argument of two categories, so it needs 2 cases
    report = check_nn_completeness(enfr.pair, enfr.correspondence)
    assert check_nn_completeness(enfr.pair, enfr.correspondence, tuple_cap=2) == report
    with pytest.raises(TupleCapError, match="'M1' needs 2 correspondence tuples, over the cap of 1"):
        check_nn_completeness(enfr.pair, enfr.correspondence, tuple_cap=1)


def nn_outcome(check, pair, corr, tuple_cap):
    try:
        return check(pair, corr, tuple_cap)
    except TupleCapError as e:
        return "cap", str(e), e.limit


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), tuple_cap=st.integers(min_value=1, max_value=12))
def test_nn_matches_the_matching_oracle(seed, tuple_cap):
    rng = random.Random(seed)
    sc = random_component(rng)
    pair = validate_pair(random_grammar(rng, "src", sc), random_grammar(rng, "tgt", sc))
    corr = random_correspondence(rng, pair)
    expected = nn_outcome(nn_by_matching, pair, corr, tuple_cap)
    assert nn_outcome(check_nn_completeness, pair, corr, tuple_cap) == expected
    assert repr(check_nn_completeness(pair, corr)) == repr(nn_by_matching(pair, corr, 10**6))


def test_nn_missing_basic_on_masc(enfr_masc):
    report = check_nn_completeness(enfr_masc.pair, enfr_masc.correspondence)
    assert report.verdict == "fail"
    assert [(v.kind, v.meaning, v.rule, v.arg_tuple) for v in report.violations] == [
        ("missing-basic", "house", None, None),
        ("missing-rule", None, "M1", ("Nf",)),
    ]


def test_labels_pass_on_enfr(enfr):
    assert validate_labels(enfr.pair, enfr.correspondence, max_depth=3).verdict == "pass"
    assert validate_labels(enfr.pair, enfr.correspondence, max_depth=6).verdict == "pass"


def test_labels_catch_a_mislabeled_noun_category(enfr):
    mislabeled = CategoryCorrespondence(
        (
            ("DETbar", CorrespondenceEntry(("DETf", "DETm"), CONJUNCTIVE)),
            ("NPbar", CorrespondenceEntry(("NPp",), CONJUNCTIVE)),
            ("Nbar", CorrespondenceEntry(("Nf", "Nm"), CONJUNCTIVE)),
        )
    )
    report = validate_labels(enfr.pair, mislabeled, max_depth=3)
    assert report.verdict == "fail"
    failures = {(format_tree(v.sem_tree), v.category) for v in report.violations}
    # cat exists only at Nm, house only at Nf
    assert ("cat", "Nf") in failures
    assert ("house", "Nm") in failures


def test_singleton_sets_are_trivially_conjunctive(identity):
    assert validate_labels(identity.pair, identity.correspondence, max_depth=4).verdict == "pass"


def test_witness_none_on_identity(identity):
    assert find_incompleteness_witness(identity.pair, 4) is None


def test_witness_none_on_enfr(enfr):
    assert find_incompleteness_witness(enfr.pair, 3) is None


def test_witness_on_broken(enfr_broken):
    witness = find_incompleteness_witness(enfr_broken.pair, 3)
    assert witness == SemNode("M1", (SemLeaf("def"), SemLeaf("house")))
    assert translate_sem(enfr_broken.pair, witness) == []
    report = witness_report(enfr_broken.pair, 3)
    assert report.verdict == "fail" and report.witness == witness


def test_necessity_of_homomorphism(enfr_homviol, rule_gap_pair):
    # a reachable homomorphism violation always comes with a witness
    assert check_homomorphism(enfr_homviol.pair).verdict == "fail"
    assert find_incompleteness_witness(enfr_homviol.pair, 6) == SemLeaf("house")
    assert check_homomorphism(rule_gap_pair).verdict == "fail"
    witness = find_incompleteness_witness(rule_gap_pair, 6)
    assert witness == SemNode("M1", (SemLeaf("def"), SemLeaf("cat")))


def test_nn_condition_is_sufficient_not_necessary(enfr_masc):
    # the static check rejects the pair, yet nothing the source derives fails
    assert check_nn_completeness(enfr_masc.pair, enfr_masc.correspondence).verdict == "fail"
    assert find_incompleteness_witness(enfr_masc.pair, 6) is None
    for d in well_formed_sem_trees(enfr_masc.pair.source, 6):
        assert translate_sem(enfr_masc.pair, d)


def test_reported_witnesses_are_source_well_formed(enfr_broken):
    witness = find_incompleteness_witness(enfr_broken.pair, 3)
    assert witness in well_formed_sem_trees(enfr_broken.pair.source, 3)
    assert is_sem_well_typed(enfr_broken.pair.source.semantics, witness)


def test_passing_checks_mean_no_witness_at_bounded_depth(identity, enfr):
    # a passing static check means the exhaustive bounded search finds nothing
    assert check_n1_completeness(identity.pair).verdict == "pass"
    assert find_incompleteness_witness(identity.pair, 6) is None
    assert check_nn_completeness(enfr.pair, enfr.correspondence).verdict == "pass"
    assert validate_labels(enfr.pair, enfr.correspondence, max_depth=6).verdict == "pass"
    assert find_incompleteness_witness(enfr.pair, 6) is None


def test_n1_correspondence_helper():
    corr = n1_correspondence({"X": "P", "Y": "Q"})
    assert corr.categories_for("X") == ("P",)
    assert corr.label_for("Y") == CONJUNCTIVE
    with pytest.raises(CorrespondenceError):
        corr.categories_for("Z")
