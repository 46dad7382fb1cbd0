"""Conjunctive labels, decided over states, against the enumeration check.

``validate_labels`` runs the state fixpoint the witness search runs, with the
target as its only side: the state of a well-typed semantic tree is its
category and the target categories that realize it, and each failing state is
reported once, with its shallowest and then canonically least tree. The
reference (``oracles.labels_by_enumeration``) is the check it replaced: every
well-typed semantic tree up to the depth bound, decided one by one.
"""

import json
import math
import random
import time

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from comptrans import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    CategoryCorrespondence,
    CorrespondenceEntry,
    sem_cat,
    tree_depth,
    validate_labels,
    validate_pair,
)
from comptrans.pipeline import realized_categories
from oracles import canonical_key, labels_by_enumeration
from test_cli import run_cli
from test_random_grammars import MAX_SEM_TREES, random_component, random_grammar
from test_witness import CHAIN_SEED, DEEP, S_S_GRAMMAR, chain_pair


def random_correspondence(rng: random.Random, pair) -> CategoryCorrespondence:
    """Either label, over a non-empty subset of the target categories, per semantic category."""
    cats = list(pair.target.categories)
    return CategoryCorrespondence(
        tuple(
            (
                c,
                CorrespondenceEntry(
                    tuple(sorted(rng.sample(cats, rng.randint(1, len(cats))))),
                    rng.choice((CONJUNCTIVE, DISJUNCTIVE)),
                ),
            )
            for c in sorted(pair.source.semantics.categories)
        )
    )


def sem_trees_up_to(sc, depth: int) -> int:
    """How many well-typed semantic trees of depth <= ``depth`` ``sc`` has, counted without building them."""
    leaves = {c: len(sc.signature.leaves_by_sort[c]) for c in sc.categories}
    count = dict(leaves)
    for _ in range(depth - 1):
        count = {
            c: leaves[c] + sum(math.prod(count[a] for a in r.arg_list) for r in sc.signature.ops_by_result[c])
            for c in sc.categories
        }
    return sum(count.values())


def is_sublist(short, long) -> bool:
    """``short`` is ``long`` with some items left out, in the same order."""
    rest = iter(long)
    return all(x in rest for x in short)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), depth=st.integers(min_value=1, max_value=4))
def test_states_match_enumeration(seed, depth):
    rng = random.Random(seed)
    sc = random_component(rng)
    pair = validate_pair(random_grammar(rng, "src", sc), random_grammar(rng, "tgt", sc))
    corr = random_correspondence(rng, pair)
    assume(sem_trees_up_to(sc, depth) <= MAX_SEM_TREES)
    expected = labels_by_enumeration(pair, corr, depth)
    got = validate_labels(pair, corr, depth)
    assert got.verdict == expected.verdict
    # the states saturate well within DEEP rounds, so the unbounded check agrees
    assert validate_labels(pair, corr) == validate_labels(pair, corr, DEEP)
    assert is_sublist(got.violations, expected.violations)

    def failing(v):
        return sem_cat(sc, v.sem_tree), realized_categories(pair.target, v.sem_tree), v.category

    reported = [failing(v) for v in got.violations]
    # one violation per failing state and wanted category, and every one is reported
    assert len(set(reported)) == len(reported)
    assert set(reported) == {failing(v) for v in expected.violations}
    # each with the shallowest, then canonically least, of the trees that fail there
    least = {}
    for v in expected.violations:
        rank = (tree_depth(v.sem_tree), canonical_key(v.sem_tree))
        least[failing(v)] = min(least.get(failing(v), rank), rank)
    assert all((tree_depth(v.sem_tree), canonical_key(v.sem_tree)) == least[failing(v)] for v in got.violations)


def write_pair(tmp_path, syncats: str, correspond: str):
    grammar = S_S_GRAMMAR.replace("  syncat S\n", f"  syncat {syncats}\n")
    (tmp_path / "ss.cg").write_text(grammar, encoding="utf-8")
    pair_file = tmp_path / "ss.cgp"
    pair_file.write_text(
        f"semantics ss.cg\nsource    ss.cg\ntarget    ss.cg\ncorrespond {correspond}\n", encoding="utf-8"
    )
    return pair_file


def timed_labels_check(pair_file, *extra):
    budget = 2.0
    start = time.perf_counter()
    result = run_cli("check", pair_file, "--condition", "labels", *extra)
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"labels {' '.join(extra)} took {elapsed:.2f}s, budget {budget}s"
    return result


def test_binary_recursive_labels_are_decided_quickly(tmp_path):
    # t(d) = 1 + t(d-1)^2 semantic trees: 458,330 up to depth 6
    pair_file = write_pair(tmp_path, "S", "Sbar -> { S } conjunctive")
    for extra in ((), ("--depth", str(DEEP))):
        code, out, err = timed_labels_check(pair_file, *extra)
        assert (code, out, err) == (0, "check labels for ss -> ss: PASS\n", "")


def test_binary_recursive_label_failure_is_one_violation(tmp_path):
    # T is declared but no basic or rule builds it, so every tree fails at T;
    # all of them share one state, reported once with its least tree
    pair_file = write_pair(tmp_path, "S T", "Sbar -> { S T } conjunctive")
    outputs = []
    for depth in (3, DEEP):
        code, out, err = timed_labels_check(pair_file, "--depth", str(depth), "--format", "json")
        assert (code, err) == (1, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    [violation] = json.loads(outputs[0])["report"]["violations"]
    assert violation["category"] == "T"
    assert violation["sem_tree"] == {"meaning": "a"}


def test_unbounded_labels_refute_a_deep_conjunctive_label():
    # K6 is conjunctive over {X6, Y6}, and some chains into K6 reach only one
    # of the two; the first has depth 7, so six rounds pass
    pair = chain_pair(CHAIN_SEED)
    corr = CategoryCorrespondence(
        tuple(
            (f"K{i}", CorrespondenceEntry((f"X{i}", f"Y{i}"), CONJUNCTIVE if i == 6 else DISJUNCTIVE))
            for i in range(7)
        )
    )
    assert validate_labels(pair, corr, 6).verdict == "pass"
    report = validate_labels(pair, corr)
    assert len(report.violations) == 4
    assert report == validate_labels(pair, corr, DEEP)
