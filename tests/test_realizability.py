"""Bottom-up realizability against the generate-then-filter references.

``realized_categories`` and ``is_well_formed_sem_tree`` decide in one pass
over a semantic tree what used to take enumerating every syntactic tree up to
its depth, or generating every candidate and filtering it. Those algorithms
live on in ``tests/oracles.py``; random grammars from
``test_random_grammars`` feed both sides well-typed trees, argument-swapped
ill-typed trees, and trees with names the semantic component lacks.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptrans import SemLeaf, SemNode, UnknownNameError, enumerate_sem_trees, is_well_formed_sem_tree
from comptrans.pipeline import realized_categories
from oracles import realized_categories_by_generation, well_formed_by_enumeration
from test_random_grammars import DEPTH, random_component, random_grammar

TREES_PER_GRAMMAR = 40


def swapped(d):
    """``d`` with every node's arguments reversed: ill-typed wherever they differ."""
    if d.is_leaf:
        return d
    return SemNode(d.name, tuple(swapped(c) for c in reversed(d.children)))


def with_unknown_leaf(d):
    if d.is_leaf:
        return SemLeaf("no-such-meaning")
    return SemNode(d.name, (with_unknown_leaf(d.children[0]), *d.children[1:]))


def draw(seed: int):
    rng = random.Random(seed)
    sc = random_component(rng)
    g = random_grammar(rng, "g", sc)
    trees = [d for c in sc.categories for d in enumerate_sem_trees(sc, c, DEPTH)]
    return g, rng.sample(trees, min(len(trees), TREES_PER_GRAMMAR))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bottom_up_realizability_matches_references(seed):
    g, trees = draw(seed)
    for d in trees + [swapped(d) for d in trees]:
        assert realized_categories(g, d) == realized_categories_by_generation(g, d), d
        assert is_well_formed_sem_tree(g, d) == well_formed_by_enumeration(g, d), d


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_unknown_names_raise(seed):
    g, trees = draw(seed)
    for d in trees[:5]:
        for bad in (with_unknown_leaf(d), SemNode("NoSuchRule", (d,))):
            for decide in (realized_categories, is_well_formed_sem_tree, realized_categories_by_generation):
                with pytest.raises(UnknownNameError):
                    decide(g, bad)
