"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's algorithms: enumeration is layered
bottom-up construction (the library recurses top-down with memoization), and
the parse oracle inverts generation by exhaustive search instead of chart
parsing. They are only meant to be obviously correct at fixture scale.

The two realizability references after the parse oracle are the
generate-then-filter algorithms the library used before it decided
realizability bottom-up, and the witness and labels references are the
enumerate-then-decide searches it used before it decided completeness and
conjunctive labels over states. ``nn_by_matching`` is the N-N check as it was
before each correspondence case went through the realization step; its
coverage part, ``_nn_coverage_violations``, is the old code unchanged and
matches carriers to argument categories by hand. ``canonical_key`` is the
sort key the library used before trees were tuples that sort themselves.
"""

import itertools
import math

from comptrans import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    CategoryCorrespondence,
    CompletenessReport,
    GrammarPair,
    SemLeaf,
    SemNode,
    SynLeaf,
    SynNode,
    TupleCapError,
    Violation,
    check_homomorphism,
    enumerate_sem_trees,
    format_tree,
    is_cfg_well_formed,
    is_sem_well_typed,
    seman,
    semgen,
    syn_cat,
    translate_sem,
    tree_depth,
    well_formed_sem_trees,
)
from comptrans.completeness import _nn_typing_violations, _require_coverage, _type_notation
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
        return list(grammar.signature.leaf_by_name[tree.basic].surface)
    rule = grammar.signature.op_by_name[tree.rule]
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
    """First well-typed source-derivable semantic tree, smallest depth then canonical order, with no translation."""
    for d in well_formed_sem_trees(pair.source, max_depth):
        if is_sem_well_typed(pair.source.semantics, d) and not translate_sem(pair, d):
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


def _nn_coverage_violations(
    pair: GrammarPair, corr: CategoryCorrespondence, tuple_cap: int
) -> list[Violation]:
    """Every semantic symbol needs a target carrier for every correspondence case.

    A case fixes one category per disjunctive argument and, for a conjunctive
    result, the result category. A basic meaning is a symbol with no
    arguments, so its cases are the categories of a conjunctive set, or one
    case for a disjunctive set.
    """
    tgt = pair.target
    violations: list[Violation] = []
    for leaf, symbols in ((True, tgt.semantics.meanings), (False, tgt.semantics.rules)):
        for sem in sorted(symbols, key=lambda x: x.name):
            labels = [corr.label_for(c) for c in sem.arg_list]
            disj_idx = [i for i, lab in enumerate(labels) if lab == DISJUNCTIVE]
            conj_idx = [i for i, lab in enumerate(labels) if lab == CONJUNCTIVE]
            conj_sets = {i: set(corr.categories_for(sem.arg_list[i])) for i in conj_idx}
            disj_sets = [corr.categories_for(sem.arg_list[i]) for i in disj_idx]
            result_set = corr.categories_for(sem.result)
            result_label = corr.label_for(sem.result)
            result_conj = result_label == CONJUNCTIVE

            n_cases = math.prod(len(s) for s in disj_sets) * (len(result_set) if result_conj else 1)
            if not leaf and n_cases > tuple_cap:
                raise TupleCapError(
                    f"semantic rule '{sem.name}' needs {n_cases} correspondence tuples, "
                    f"over the cap of {tuple_cap}",
                    tuple_cap,
                )

            candidates = tgt.inverse_interpretation.images(sem.name, leaf)

            def matches(rule, tup, required_result):
                for pos, i in enumerate(disj_idx):
                    if rule.arg_list[i] != tup[pos]:
                        return False
                for i in conj_idx:
                    if rule.arg_list[i] not in conj_sets[i]:
                        return False
                if required_result is None:
                    return rule.result in result_set
                return rule.result == required_result

            for tup in itertools.product(*disj_sets):
                required = list(result_set) if result_conj else [None]
                for req in required:
                    if any(matches(r, tup, req) for r in candidates):
                        continue
                    shown = req if req is not None else f"any of {{{', '.join(result_set)}}}"
                    if leaf:
                        where = f"of category '{req}'" if req is not None else f"in {shown}"
                        violations.append(
                            Violation(
                                kind="missing-basic",
                                message=(
                                    f"meaning '{sem.name}' ({result_label} '{sem.result}') has no "
                                    f"target basic {where}"
                                ),
                                meaning=sem.name,
                                category=req,
                            )
                        )
                        continue
                    violations.append(
                        Violation(
                            kind="missing-rule",
                            message=(
                                f"semantic rule '{sem.name}' : {_type_notation(sem.arg_list, sem.result)}: "
                                f"no target rule carries it with disjunctive argument tuple "
                                f"⟨{','.join(tup)}⟩ and result {shown}"
                            ),
                            rule=sem.name,
                            arg_tuple=tup,
                            category=req,
                        )
                    )
    return violations


def nn_by_matching(pair, corr, tuple_cap):
    """``check_nn_completeness`` with the coverage part above."""
    _require_coverage(pair, corr)
    hom = check_homomorphism(pair)
    violations = list(hom.violations)
    violations.extend(_nn_typing_violations(pair, corr))
    violations.extend(_nn_coverage_violations(pair, corr, tuple_cap))
    return CompletenessReport(condition="nn", violations=tuple(violations), subreports=(hom,))
