"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's algorithms: enumeration is layered
bottom-up construction (the library recurses top-down with memoization), and
the parse oracle inverts generation by exhaustive search instead of chart
parsing. They are only meant to be obviously correct at fixture scale.

The two realizability references at the end are the generate-then-filter
algorithms the library used before it decided realizability bottom-up.
"""

import itertools

from comptrans import (
    SemLeaf,
    SemNode,
    SynLeaf,
    SynNode,
    is_cfg_well_formed,
    seman,
    semgen,
    syn_cat,
    tree_depth,
    well_formed_sem_trees,
)


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
