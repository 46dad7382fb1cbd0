"""Analysis and generation: examples, round trips, oracle equivalence."""

import re
import time

import pytest

from comptrans import (
    AmbiguityCapError,
    GrammarValidationError,
    IllFormedTreeError,
    SynLeaf,
    SynNode,
    UnknownNameError,
    enumerate_syn_trees,
    is_cfg_well_formed,
    load_grammar,
    morsynan,
    morsyngen,
)
from oracles import generable_utterances, naive_yield, parse_oracle

AMBIGUOUS = """
semantics s
  semcat X
  meaning x : X
  mrule Pair : ( X X ) -> X
grammar amb uses s
  syncat E
  basic a : E = "a" => x
  rule Cat : ( E E ) -> E = $1 $2 => Pair
"""

UNARY_CHAIN = """
semantics s
  semcat X
  meaning x : X
  mrule Lift : ( X ) -> X
grammar chain uses s
  syncat Low Mid High
  basic w : Low = "w" => x
  rule U1 : ( Low ) -> Mid = $1 => Lift
  rule U2 : ( Mid ) -> High = $1 => Lift
"""

# unary rules declared against dependency order: each one before the rules
# deriving its argument; A reaches D by two paths, through B and through C
UNARY_DIAMOND = """
semantics s
  semcat X
  meaning x : X
  mrule F : ( X ) -> X
  mrule G : ( X X ) -> X
grammar diamond uses s
  syncat A B C D E
  basic w : A = "w" => x
  rule Top : ( D ) -> E = $1 => F
  rule ViaB : ( B ) -> D = $1 => F
  rule ViaC : ( C ) -> D = $1 => F
  rule ToB : ( A ) -> B = $1 => F
  rule ToC : ( A ) -> C = $1 => F
  rule Very : ( A ) -> A = "very" $1 => F
  rule And : ( E A ) -> E = $1 "and" $2 => G
"""

# L -> I L | I ".": one parse, and a chart entry per suffix
DOTTED_LIST = """
semantics s
  semcat Ibar Lbar
  meaning i : Ibar
  mrule P : ( Ibar Lbar ) -> Lbar
  mrule Q : ( Ibar ) -> Lbar
grammar list uses s
  syncat I L
  basic i : I = "x" => i
  rule R1 : ( I L ) -> L = $1 $2 => P
  rule R0 : ( I ) -> L = $1 "." => Q
"""

HOMOGRAPHS = """
semantics s
  semcat X Y
  meaning shore : X
  meaning firm : Y
  mrule Pick : ( X ) -> X
grammar homo uses s
  syncat N V S
  basic bank-n : N = "bank" => shore
  basic bank-v : V = "bank" => firm
  basic river : S = "river" "bank" => shore
"""


def test_morsyngen_examples(paper_grammar):
    g = paper_grammar
    assert morsyngen(g, SynLeaf("b")) == ("b",)
    assert morsyngen(g, SynNode("R2", (SynLeaf("b"),))) == ("a", "b", "d")
    # template e $2 $1 puts the C material before the B material
    assert morsyngen(g, SynNode("R3", (SynLeaf("b"), SynLeaf("c")))) == ("e", "c", "b")


def test_morsyngen_rejects_ill_formed(paper_grammar):
    with pytest.raises(IllFormedTreeError):
        morsyngen(paper_grammar, SynNode("R1", (SynLeaf("c"), SynLeaf("b"))))
    with pytest.raises(IllFormedTreeError):
        morsyngen(paper_grammar, SynNode("R1", (SynLeaf("b"),)))


def test_morsynan_examples(paper_grammar):
    g = paper_grammar
    assert morsynan(g, ["b"]) == [SynLeaf("b")]
    assert morsynan(g, "a b d".split()) == [SynNode("R2", (SynLeaf("b"),))]
    # children come back in argument-list order ⟨B,C⟩ even though the surface
    # puts the C material first
    assert morsynan(g, "e c b".split()) == [SynNode("R3", (SynLeaf("b"), SynLeaf("c")))]
    assert morsynan(g, ["z"]) == []
    assert morsynan(g, []) == []


def test_morsynan_category_filter(paper_grammar):
    assert morsynan(paper_grammar, ["b"], category="B") == [SynLeaf("b")]
    assert morsynan(paper_grammar, ["b"], category="A") == []
    with pytest.raises(UnknownNameError):
        morsynan(paper_grammar, ["b"], category="Zed")


def test_round_trip_all_enumerated_trees(paper_grammar, enfr):
    for g in (paper_grammar, enfr.pair.source, enfr.pair.target):
        for cat in g.categories:
            for t in enumerate_syn_trees(g, cat, 5):
                utterance = morsyngen(g, t)
                parses = morsynan(g, utterance)
                assert t in parses
                for back in parses:
                    assert is_cfg_well_formed(g, back)
                    assert morsyngen(g, back) == utterance


def test_oracle_equivalence_on_fixtures(paper_grammar, enfr):
    for g in (paper_grammar, enfr.pair.source, enfr.pair.target):
        for utterance in sorted(generable_utterances(g, 5)):
            assert set(morsynan(g, utterance)) == parse_oracle(g, utterance, 5)


def test_ambiguity_all_parses_returned():
    g = load_grammar(AMBIGUOUS)
    # Catalan numbers: 1, 1, 2, 5, 14 parses for 1..5 tokens
    for n, expected in [(1, 1), (2, 1), (3, 2), (4, 5), (5, 14)]:
        parses = morsynan(g, ["a"] * n)
        assert len(parses) == expected
        assert len(set(parses)) == expected
        # a parse of n tokens nests at most n levels, so depth n is exhaustive
        assert set(parses) == parse_oracle(g, ["a"] * n, n)


def test_ambiguity_cap_is_an_error_not_truncation():
    g = load_grammar(AMBIGUOUS)
    with pytest.raises(AmbiguityCapError) as err:
        morsynan(g, ["a"] * 6, max_trees=10)
    assert err.value.limit == 10
    # generous cap: same call succeeds
    assert len(morsynan(g, ["a"] * 6, max_trees=10_000)) == 42


def test_unary_chain_parses():
    g = load_grammar(UNARY_CHAIN)
    parses = morsynan(g, ["w"])
    assert parses == [
        SynNode("U1", (SynLeaf("w"),)),
        SynNode("U2", (SynNode("U1", (SynLeaf("w"),)),)),
        SynLeaf("w"),
    ]
    assert morsynan(g, ["w"], category="High") == [
        SynNode("U2", (SynNode("U1", (SynLeaf("w"),)),))
    ]


def test_homographs_and_multi_token_surfaces():
    g = load_grammar(HOMOGRAPHS)
    assert morsynan(g, ["bank"]) == [SynLeaf("bank-n"), SynLeaf("bank-v")]
    assert morsynan(g, "river bank".split()) == [SynLeaf("river")]
    assert morsyngen(g, SynLeaf("river")) == ("river", "bank")


@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_generation_matches_independent_yield(paper_grammar, depth):
    g = paper_grammar
    for cat in g.categories:
        for t in enumerate_syn_trees(g, cat, depth):
            assert tuple(naive_yield(g, t)) == morsyngen(g, t)


def test_unary_rules_against_declaration_order_match_oracle():
    g = load_grammar(UNARY_DIAMOND)
    tops = morsynan(g, ["w"], category="E")
    assert [t.children[0].name for t in tops] == ["ViaB", "ViaC"]
    # a parse nests the leaf, one level per "very" or "and", and at most 3
    # unary levels above those: depth 8 is exhaustive up to 5 tokens
    for utterance in sorted(generable_utterances(g, 6)):
        if len(utterance) <= 5:
            assert set(morsynan(g, utterance)) == parse_oracle(g, utterance, 8)


def test_three_category_unary_cycle_rejected():
    text = """
semantics s
  semcat X
  meaning x : X
  mrule F : ( X ) -> X
grammar g uses s
  syncat P Q R
  basic p : P = "p" => x
  rule PQ : ( P ) -> Q = $1 => F
  rule QR : ( Q ) -> R = $1 => F
  rule RP : ( R ) -> P = $1 => F
"""
    with pytest.raises(GrammarValidationError) as err:
        load_grammar(text)
    found = re.search(r"cycle through categories ([A-Z]+(?: -> [A-Z]+)+) \(rule '(\w+)'\)", str(err.value))
    assert found, str(err.value)
    cycle = found.group(1).split(" -> ")
    assert len(cycle) == 4 and cycle[0] == cycle[-1] and set(cycle) == {"P", "Q", "R"}
    edges = {"PQ": ("P", "Q"), "QR": ("Q", "R"), "RP": ("R", "P")}
    assert set(zip(cycle, cycle[1:])) == set(edges.values())
    assert found.group(2) in edges


def test_long_list_parses_quickly():
    g = load_grammar(DOTTED_LIST)
    tokens = ["x"] * 300 + ["."]
    start = time.perf_counter()
    parses = morsynan(g, tokens)
    elapsed = time.perf_counter() - start
    assert len(parses) == 1
    assert elapsed < 1.5, f"a 300-token list took {elapsed:.2f}s to parse, budget 1.5s"


def test_cap_counts_chart_entries():
    # L -> I L | I puts n(n+3)/2 entries in the chart of n tokens: 90 at 12
    g = load_grammar(DOTTED_LIST.replace('$1 "." => Q', "$1 => Q"))
    assert len(morsynan(g, ["x"] * 12, category="L", max_trees=90)) == 1
    with pytest.raises(AmbiguityCapError):
        morsynan(g, ["x"] * 12, max_trees=89)
