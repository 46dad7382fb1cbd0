"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's algorithms: enumeration is layered
bottom-up construction (the library recurses top-down with memoization), and
the parse oracle inverts generation by exhaustive search instead of chart
parsing. They are only meant to be obviously correct at fixture scale.

The two realizability references at the end are the generate-then-filter
algorithms the library used before it decided realizability bottom-up, and
the witness and labels references are the enumerate-then-decide searches it
used before it decided completeness and conjunctive labels over states.
``canonical_key`` is the sort key the library used before trees were tuples
that sort themselves.
"""

import itertools

from comptrans import (
    CONJUNCTIVE,
    CompletenessReport,
    SemLeaf,
    SemNode,
    SynLeaf,
    SynNode,
    Violation,
    enumerate_sem_trees,
    format_tree,
    is_cfg_well_formed,
    seman,
    semgen,
    syn_cat,
    translate_sem,
    tree_depth,
    well_formed_sem_trees,
)
from comptrans.pipeline import realized_categories


def canonical_key(t):
    """The canonical order spelled out: node name, then the children's keys in turn."""
    return (t.name, tuple(map(canonical_key, t.children)))


def naive_syn_trees(grammar, category, max_depth):
    """All well-formed syntactic trees of ``category``, built layer by layer."""
    by_cat = {c: set() for c in grammar.categories}
    for b in grammar.basics:
        by_cat[b.category].add(SynLeaf(b.name))
    for _ in range(max_depth - 1):
        grown = {c: set(ts) for c, ts in by_cat.items()}
        for r in grammar.rules:
            pools = [by_cat[c] for c in r.arg_list]
            for combo in itertools.product(*pools):
                grown[r.result].add(SynNode(r.name, combo))
        by_cat = grown
    return by_cat[category]


def naive_sem_trees(component, category, max_depth):
    """All well-typed semantic trees of ``category``, built layer by layer."""
    by_cat = {c: set() for c in component.categories}
    for m in component.meanings:
        by_cat[m.category].add(SemLeaf(m.name))
    for _ in range(max_depth - 1):
        grown = {c: set(ts) for c, ts in by_cat.items()}
        for r in component.rules:
            pools = [by_cat[c] for c in r.arg_list]
            for combo in itertools.product(*pools):
                grown[r.result].add(SemNode(r.name, combo))
        by_cat = grown
    return by_cat[category]


def naive_yield(grammar, tree):
    """Utterance of a well-formed tree, written independently of morsyngen."""
    if isinstance(tree, SynLeaf):
        return list(grammar.basic_by_name[tree.basic].surface)
    rule = grammar.rule_by_name[tree.rule]
    parts = []
    for item in rule.template:
        parts.append([item] if isinstance(item, str) else naive_yield(grammar, tree.children[item - 1]))
    return [tok for part in parts for tok in part]


def all_trees_to_depth(grammar, max_depth):
    out = set()
    for c in grammar.categories:
        out |= naive_syn_trees(grammar, c, max_depth)
    return out


def parse_oracle(grammar, tokens, max_depth):
    """Inverse image of generation over all trees up to ``max_depth``."""
    tokens = list(tokens)
    return {t for t in all_trees_to_depth(grammar, max_depth) if naive_yield(grammar, t) == tokens}


def generable_utterances(grammar, max_depth):
    return {tuple(naive_yield(grammar, t)) for t in all_trees_to_depth(grammar, max_depth)}


def shared_wellformed_sem_trees(pair, source_utt, target_utt, max_depth):
    """Semantic trees shared by analyses of the two utterances.

    Translation equivalence holds exactly when this set is non-empty.
    """
    src = {
        d
        for t in parse_oracle(pair.source, source_utt, max_depth)
        for d in seman(pair.source, t)
    }
    tgt = {
        d
        for t in parse_oracle(pair.target, target_utt, max_depth)
        for d in seman(pair.target, t)
    }
    return src & tgt


def well_formed_by_enumeration(grammar, d):
    """Is ``d`` among the well-formed semantic trees of ``grammar`` up to its depth?"""
    return d in set(well_formed_sem_trees(grammar, tree_depth(d)))


def realized_categories_by_generation(grammar, d):
    """Categories of the well-formed candidates that semantic generation builds for ``d``."""
    return {syn_cat(grammar, t) for t in semgen(grammar, d) if is_cfg_well_formed(grammar, t)}


def witness_by_enumeration(pair, max_depth):
    """First source-derivable semantic tree, smallest depth then canonical order, with no translation."""
    for d in well_formed_sem_trees(pair.source, max_depth):
        if not translate_sem(pair, d):
            return d
    return None


def labels_by_enumeration(pair, corr, max_depth):
    """Every well-typed semantic tree of a conjunctive category up to ``max_depth``, one by one.

    Reports each tree that lacks a well-formed target realization at a
    category of its correspondence set, by semantic category, then canonical
    tree order, then wanted category. ``corr`` must cover the semantic
    categories and name only target categories.
    """
    tgt = pair.target
    sc = tgt.semantics
    violations = []
    for sem_cat, entry in corr.entries:
        if entry.label != CONJUNCTIVE or sem_cat not in set(sc.categories):
            continue
        for d in enumerate_sem_trees(sc, sem_cat, max_depth):
            realized = realized_categories(tgt, d)
            for wanted in entry.categories:
                if wanted not in realized:
                    violations.append(
                        Violation(
                            kind="label",
                            message=(
                                f"'{sem_cat}' is labeled conjunctive but {format_tree(d)} has no "
                                f"well-formed target realization of category '{wanted}'"
                            ),
                            category=wanted,
                            sem_tree=d,
                        )
                    )
    return CompletenessReport(condition="labels", violations=tuple(violations))
