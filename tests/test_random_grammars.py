"""Randomized cross-validation on small generated grammars.

Each seeded trial builds a random shared semantic component and a random
source/target grammar over it, then checks the load-bearing claims:

* the chart parser agrees with the brute-force inverse-image oracle,
* analysis and generation are dual and geometry-preserving,
* a passing static completeness check means the bounded exhaustive witness
  search comes up empty (the conditions really are sufficient),
* any witness found is honest: derivable by the source and untranslatable,
* and, over a fixed sweep of seeds with no depth bound, the exact witness
  search never contradicts a passing n1 check or a passing nn check whose
  labels pass.

Translation, whose stages keep one memo each over all the parses of an
utterance, is also checked against the same stages applied tree by tree.

Grammars are kept tiny so the exhaustive parts stay exhaustive; trials whose
enumerations still blow past the guards are skipped for the expensive parts.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from comptrans import (
    AmbiguityCapError,
    BasicExpression,
    BasicMeaning,
    CONJUNCTIVE,
    CategoryCorrespondence,
    CompositionalGrammar,
    CorrespondenceEntry,
    DISJUNCTIVE,
    GrammarValidationError,
    SemanticComponent,
    SemRule,
    SyntacticRule,
    check_n1_completeness,
    check_nn_completeness,
    enumerate_sem_trees,
    enumerate_syn_trees,
    find_incompleteness_witness,
    is_cfg_well_formed,
    is_sem_well_typed,
    morsynan,
    morsyngen,
    seman,
    semgen,
    translate,
    translate_sem,
    tree_depth,
    validate_grammar,
    validate_labels,
    validate_pair,
    validate_semantics,
    well_formed_sem_trees,
)
from comptrans.pipeline import realized_categories
from oracles import canonical_key, generable_utterances, parse_oracle, translate_by_tree

TERMINALS = ["u", "v", "w"]
TRIALS = 150
DEPTH = 3
MAX_SYN_TREES = 600
MAX_SEM_TREES = 1500


def random_component(rng: random.Random) -> SemanticComponent:
    cats = [f"S{i}" for i in range(1, rng.randint(2, 3) + 1)]
    meanings = tuple(
        BasicMeaning(f"m{i}", rng.choice(cats)) for i in range(1, rng.randint(2, 4) + 1)
    )
    rules = tuple(
        SemRule(
            f"F{i}",
            tuple(rng.choice(cats) for _ in range(rng.randint(1, 2))),
            rng.choice(cats),
        )
        for i in range(1, rng.randint(1, 3) + 1)
    )
    return validate_semantics(SemanticComponent("rand-sem", tuple(cats), meanings, rules))


def random_template(rng: random.Random, arity: int) -> tuple:
    items = list(range(1, arity + 1))
    rng.shuffle(items)
    for _ in range(rng.randint(0, 2)):
        items.insert(rng.randint(0, len(items)), rng.choice(TERMINALS))
    return tuple(items)


def random_grammar(rng: random.Random, name: str, sc: SemanticComponent) -> CompositionalGrammar:
    for _ in range(20):
        cats = [f"{name}C{i}" for i in range(1, rng.randint(2, 3) + 1)]
        basics = []
        for i in range(1, rng.randint(1, 3) + 1):
            meanings = rng.sample([m.name for m in sc.meanings], rng.randint(1, 2))
            surface = tuple(rng.choice(TERMINALS) for _ in range(rng.randint(1, 2)))
            basics.append(BasicExpression(f"{name}b{i}", rng.choice(cats), surface, tuple(sorted(meanings))))
        rules = []
        for i in range(1, rng.randint(0, 3) + 1):
            sem_rule = rng.choice(sc.rules)
            same_arity = [r.name for r in sc.rules if r.arity == sem_rule.arity]
            carried = sorted(rng.sample(same_arity, min(len(same_arity), rng.randint(1, 2))))
            rules.append(
                SyntacticRule(
                    f"{name}R{i}",
                    tuple(rng.choice(cats) for _ in range(sem_rule.arity)),
                    rng.choice(cats),
                    random_template(rng, sem_rule.arity),
                    tuple(carried),
                )
            )
        g = CompositionalGrammar(name, tuple(cats), tuple(basics), tuple(rules), sc)
        try:
            return validate_grammar(g)
        except GrammarValidationError:
            continue  # unary terminal-free cycle; redraw
    raise AssertionError("could not draw a valid random grammar")


def observed_correspondence(target: CompositionalGrammar) -> CategoryCorrespondence:
    """The minimal sets consistent with every target interpretation link."""
    sc = target.semantics
    sets: dict[str, set] = {c: set() for c in sc.categories}
    for b in target.basics:
        for m in b.meanings:
            sets[sc.signature.leaf_by_name[m].category].add(b.category)
    for r in target.rules:
        for m in r.meanings:
            sem = sc.signature.op_by_name[m]
            for sem_arg, syn_arg in zip(sem.arg_list, r.arg_list):
                sets[sem_arg].add(syn_arg)
            sets[sem.result].add(r.result)
    fallback = min(target.categories)
    return CategoryCorrespondence(
        tuple(
            (c, CorrespondenceEntry(tuple(sorted(s or {fallback})), DISJUNCTIVE))
            for c, s in sorted(sets.items())
        )
    )


def check_parser_against_oracle(g: CompositionalGrammar) -> None:
    trees = [t for c in set(g.categories) for t in enumerate_syn_trees(g, c, DEPTH)]
    if len(trees) > MAX_SYN_TREES:
        return
    # a small cap keeps the wildly ambiguous draws cheap; capped utterances
    # are skipped, not truncated
    cap = 2000
    for t in trees[:200]:
        utterance = morsyngen(g, t)
        try:
            parses = morsynan(g, utterance, max_trees=cap)
        except AmbiguityCapError:
            continue
        assert t in parses
    for utterance in sorted(generable_utterances(g, DEPTH)):
        try:
            parses = morsynan(g, utterance, max_trees=cap)
        except AmbiguityCapError:
            continue
        oracle = parse_oracle(g, utterance, DEPTH)
        bounded = {t for t in parses if tree_depth(t) <= DEPTH}
        assert bounded == oracle, utterance
        for t in parses:
            assert is_cfg_well_formed(g, t)
            assert morsyngen(g, t) == tuple(utterance)


def check_duality(g: CompositionalGrammar) -> None:
    trees = [t for c in set(g.categories) for t in enumerate_syn_trees(g, c, DEPTH)]
    for t in trees[:150]:
        for d in seman(g, t):
            assert d in seman(g, t)
            assert t in semgen(g, d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_relabelling_yields_canonical_order(seed):
    rng = random.Random(seed)
    sc = random_component(rng)
    g = random_grammar(rng, "g", sc)
    # declared out of name order, so relabelling cannot inherit the order
    g = validate_grammar(
        CompositionalGrammar(
            g.name,
            g.categories,
            tuple(b._replace(meanings=b.meanings[::-1]) for b in g.basics[::-1]),
            tuple(r._replace(meanings=r.meanings[::-1]) for r in g.rules[::-1]),
            sc,
        )
    )
    # leaves included: depth 1 enumerates them first
    syn = [t for c in g.categories for t in enumerate_syn_trees(g, c, DEPTH)]
    sem = [d for c in sc.categories for d in enumerate_sem_trees(sc, c, DEPTH)]
    for out in [seman(g, t) for t in syn[:150]] + [semgen(g, d) for d in sem[:150]]:
        assert out == sorted(set(out), key=canonical_key)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_translate_matches_the_per_tree_path(seed):
    rng = random.Random(seed)
    sc = random_component(rng)
    pair = validate_pair(random_grammar(rng, "src", sc), random_grammar(rng, "tgt", sc))
    utterances = sorted(generable_utterances(pair.source, DEPTH))
    for utterance in rng.sample(utterances, min(len(utterances), 8)):
        try:
            expected = translate_by_tree(pair, utterance, max_trees=2000)
        except AmbiguityCapError:
            continue
        assert translate(pair, utterance, max_trees=2000) == expected, utterance


def test_random_grammar_trials():
    skipped_witness = 0
    for seed in range(TRIALS):
        rng = random.Random(seed)
        sc = random_component(rng)
        source = random_grammar(rng, "src", sc)
        target = random_grammar(rng, "tgt", sc)
        pair = validate_pair(source, target)

        check_parser_against_oracle(source)
        check_parser_against_oracle(target)
        check_duality(source)

        candidates = well_formed_sem_trees(source, DEPTH)
        if len(candidates) > MAX_SEM_TREES:
            skipped_witness += 1
            continue
        witness = find_incompleteness_witness(pair, DEPTH)
        if witness is not None:
            assert translate_sem(pair, witness) == [], seed
            assert witness in candidates, seed

        if check_n1_completeness(pair).verdict == "pass":
            assert witness is None, seed
        corr = observed_correspondence(target)
        if check_nn_completeness(pair, corr).verdict == "pass":
            # all-disjunctive labels need no validation pass; the static
            # verdict alone must rule out a witness
            assert witness is None, seed
    # the size guards must not hollow the test out
    assert skipped_witness < TRIALS / 4


def test_trials_cover_both_outcomes():
    # sanity: the generator produces both complete and incomplete pairs
    verdicts = set()
    for seed in range(60):
        rng = random.Random(seed)
        sc = random_component(rng)
        source = random_grammar(rng, "src", sc)
        target = random_grammar(rng, "tgt", sc)
        pair = validate_pair(source, target)
        if len(well_formed_sem_trees(source, DEPTH)) > MAX_SEM_TREES:
            continue
        verdicts.add(find_incompleteness_witness(pair, DEPTH) is None)
    assert verdicts == {True, False}


SWEEP = 3000


def proper_subtrees(t):
    for c in t.children:
        yield c
        yield from proper_subtrees(c)


def test_conditions_are_sufficient_over_an_exact_sweep():
    """The paper's guarantee, with no depth bound and no size skip.

    Over seeds 0-2,999, drawn as in the trials, the correspondence is the
    observed sets with a random label per category. A passing n1 check, or a
    passing nn check whose labels pass, rules out a witness, and every witness
    is a well-typed tree the source realizes and the target does not, though
    it realizes every proper subtree. The conditions are sufficient, not
    necessary: 1,183 of the pairs fail nn or labels yet have no witness.
    """
    proved = conjunctive = 0
    for seed in range(SWEEP):
        rng = random.Random(seed)
        sc = random_component(rng)
        source = random_grammar(rng, "src", sc)
        target = random_grammar(rng, "tgt", sc)
        pair = validate_pair(source, target)
        corr = CategoryCorrespondence(
            tuple(
                (c, CorrespondenceEntry(e.categories, rng.choice((CONJUNCTIVE, DISJUNCTIVE))))
                for c, e in observed_correspondence(target).entries
            )
        )
        witness = find_incompleteness_witness(pair)
        if witness is not None:
            assert is_sem_well_typed(sc, witness), seed
            assert realized_categories(source, witness), seed
            assert not realized_categories(target, witness), seed
            assert all(realized_categories(target, d) for d in proper_subtrees(witness)), seed
        if check_n1_completeness(pair).passed:
            assert witness is None, seed
        if check_nn_completeness(pair, corr).passed and validate_labels(pair, corr).passed:
            assert witness is None, seed
            proved += 1
            conjunctive += any(e.label == CONJUNCTIVE and len(e.categories) >= 2 for _, e in corr.entries)
    # 75 and 31 when written; the generator must not hollow the property out
    assert proved >= 50
    assert conjunctive >= 20
