"""Static completeness checkers and the incompleteness witness search.

The checks answer one question from different angles: given a grammar pair,
is every well-formed source semantic derivation tree guaranteed at least one
well-formed target utterance?

* ``check_homomorphism`` is the necessary condition: every source basic
  meaning and semantic rule has a target counterpart.
* ``check_n1_completeness`` adds the strongest category discipline: one
  target syntactic category per semantic category, inferred from the target
  grammar's own interpretation links.
* ``check_nn_completeness`` relaxes that to category correspondence sets with
  conjunctive/disjunctive labels and checks coverage of every disjunctive
  argument tuple.
* ``validate_labels`` refutes (up to a depth bound) conjunctive labels the
  target grammar cannot honor.
* ``find_incompleteness_witness`` is the ground truth: a bottom-up fixpoint
  over the states (source categories, target categories) of semantic trees
  finds the smallest well-formed source semantic derivation tree with no
  translation. Once no new state appears, it has proved that none exists at
  any depth.

A passing static check is a proof (for n1) or proof-shaped evidence (for nn,
whose labels are validated only up to a bound); a witness is always a real
counterexample.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ComptransError, CorrespondenceError, TupleCapError
from .model import CompositionalGrammar, GrammarPair
from .pipeline import realize_node, realized_categories
from .trees import SemLeaf, SemNode, SemTree, enumerate_sem_trees, format_tree

# Unused here; bench/tracing.py times the calls made through these names, so
# they stay bound in this module.
from .pipeline import translate_sem, well_formed_sem_trees  # noqa: F401

CONJUNCTIVE = "conjunctive"
DISJUNCTIVE = "disjunctive"

DEFAULT_TUPLE_CAP = 10**6
DEFAULT_LABEL_DEPTH = 6


@dataclass(frozen=True)
class CorrespondenceEntry:
    """One semantic category's target categories and its label."""

    categories: tuple[str, ...]  # sorted, non-empty
    label: str  # CONJUNCTIVE or DISJUNCTIVE


@dataclass(frozen=True)
class CategoryCorrespondence:
    """Map from semantic categories to sets of target syntactic categories."""

    entries: tuple[tuple[str, CorrespondenceEntry], ...]  # sorted by category

    @cached_property
    def by_category(self) -> dict[str, CorrespondenceEntry]:
        return dict(self.entries)

    def _entry(self, sem_cat: str) -> CorrespondenceEntry:
        entry = self.by_category.get(sem_cat)
        if entry is None:
            raise CorrespondenceError(f"no correspondence declared for semantic category '{sem_cat}'")
        return entry

    def categories_for(self, sem_cat: str) -> tuple[str, ...]:
        return self._entry(sem_cat).categories

    def label_for(self, sem_cat: str) -> str:
        return self._entry(sem_cat).label


def n1_correspondence(mapping: dict[str, str]) -> CategoryCorrespondence:
    """Wrap a one-to-one category map as singleton, conjunctive sets."""
    return CategoryCorrespondence(
        tuple(
            (sem_cat, CorrespondenceEntry((syn_cat,), CONJUNCTIVE))
            for sem_cat, syn_cat in sorted(mapping.items())
        )
    )


@dataclass(frozen=True)
class Violation:
    """One itemized reason a check failed."""

    kind: str
    message: str
    source: str | None = None      # offending source-grammar basic or rule
    meaning: str | None = None     # basic meaning involved
    rule: str | None = None        # semantic rule involved
    category: str | None = None    # category involved
    arg_tuple: tuple[str, ...] | None = None  # disjunctive-position tuple
    sem_tree: SemTree | None = None


@dataclass(frozen=True)
class CompletenessReport:
    """Verdict plus itemized violations (and, for searches, a witness)."""

    condition: str  # homomorphism | n1 | nn | labels | witness-search
    violations: tuple[Violation, ...] = ()
    witness: SemTree | None = None
    subreports: tuple["CompletenessReport", ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations and self.witness is None

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _type_notation(arg_list, result) -> str:
    return f"⟨⟨{','.join(arg_list)}⟩,{result}⟩"


def check_homomorphism(pair: GrammarPair) -> CompletenessReport:
    """Every source basic meaning and semantic rule must have a target carrier."""
    src, tgt = pair.source, pair.target
    violations: list[Violation] = []
    for b in sorted(src.basics, key=lambda x: x.name):
        for m in b.meanings:
            if not tgt.inverse_interpretation.leaves[m]:
                violations.append(
                    Violation(
                        kind="uncovered-basic-meaning",
                        message=(
                            f"source basic '{b.name}' carries meaning '{m}' but no basic "
                            f"expression of '{tgt.name}' does"
                        ),
                        source=b.name,
                        meaning=m,
                    )
                )
    for r in sorted(src.rules, key=lambda x: x.name):
        for m in r.meanings:
            if not tgt.inverse_interpretation.ops[m]:
                violations.append(
                    Violation(
                        kind="uncovered-semantic-rule",
                        message=(
                            f"source rule '{r.name}' carries semantic rule '{m}' but no rule "
                            f"of '{tgt.name}' does"
                        ),
                        source=r.name,
                        rule=m,
                    )
                )
    return CompletenessReport(condition="homomorphism", violations=tuple(violations))


def _interpretation_links(g: CompositionalGrammar):
    """Every interpretation link of ``g``, basics then rules, each sorted by name.

    Yields ``(carrier, meaning, role, syntactic category, semantic category)``
    where ``role`` is ``"basic"``, ``"argument <i>"`` (1-based) or ``"result"``.
    """
    sc = g.semantics
    for b in sorted(g.basics, key=lambda x: x.name):
        for m in b.meanings:
            yield b, m, "basic", b.category, sc.meaning_by_name[m].category
    for r in sorted(g.rules, key=lambda x: x.name):
        for m in r.meanings:
            sem = sc.rule_by_name[m]
            for i, (syn_arg, sem_arg) in enumerate(zip(r.arg_list, sem.arg_list), start=1):
                yield r, m, f"argument {i}", syn_arg, sem_arg
            yield r, m, "result", r.result, sem.result


def _solve_n1(target: CompositionalGrammar) -> tuple[dict[str, str] | None, list[Violation]]:
    """Propagate every interpretation link into a category map, or explain why none exists."""
    sc = target.semantics
    demands: dict[str, tuple[str, str]] = {}
    violations: list[Violation] = []
    for x, m, role, syn_cat, sem_cat in _interpretation_links(target):
        if role == "basic":
            why = f"basic '{x.name}' carries '{m}'"
        else:
            why = f"{role} of rule '{x.name}' realizing '{m}'"
        prev = demands.get(sem_cat)
        if prev is None:
            demands[sem_cat] = (syn_cat, why)
        elif prev[0] != syn_cat:
            violations.append(
                Violation(
                    kind="n1-conflict",
                    message=(
                        f"semantic category '{sem_cat}' is constrained to '{prev[0]}' ({prev[1]}) "
                        f"and to '{syn_cat}' ({why})"
                    ),
                    category=sem_cat,
                )
            )

    if violations:
        return None, violations

    mapping = {cat: img for cat, (img, _) in demands.items()}
    unconstrained = [c for c in sc.categories if c not in mapping]
    if unconstrained:
        if not target.categories:
            return None, [
                Violation(
                    kind="n1-unconstrained",
                    message=(
                        f"semantic categories {sorted(unconstrained)} are unconstrained and "
                        f"grammar '{target.name}' declares no syntactic category to map them to"
                    ),
                )
            ]
        # no interpretation link mentions these, so any fixed image works
        fallback = min(target.categories)
        for c in unconstrained:
            mapping[c] = fallback
    return mapping, []


def infer_n1_map(target: CompositionalGrammar) -> CategoryCorrespondence | None:
    """The unique one-to-one category correspondence of ``target``, if any."""
    mapping, _ = _solve_n1(target)
    return None if mapping is None else n1_correspondence(mapping)


def check_n1_completeness(pair: GrammarPair) -> CompletenessReport:
    """Completeness via homomorphism plus a one-to-one category correspondence."""
    hom = check_homomorphism(pair)
    _, n1_violations = _solve_n1(pair.target)
    n1 = CompletenessReport(condition="n1", violations=tuple(n1_violations))
    return CompletenessReport(
        condition="n1",
        violations=hom.violations + n1.violations,
        subreports=(hom, n1),
    )


def _require_coverage(pair: GrammarPair, corr: CategoryCorrespondence) -> None:
    sc = pair.source.semantics
    missing = [c for c in sc.categories if c not in corr.by_category]
    if missing:
        raise CorrespondenceError(
            f"correspondence has no entry for semantic categories: {', '.join(sorted(missing))}"
        )
    target_cats = set(pair.target.categories)
    for cat, entry in corr.entries:
        unknown = [c for c in entry.categories if c not in target_cats]
        if unknown:
            raise CorrespondenceError(
                f"correspondence for '{cat}' names categories not declared by grammar "
                f"'{pair.target.name}': {', '.join(unknown)}"
            )


def _nn_typing_violations(pair: GrammarPair, corr: CategoryCorrespondence) -> list[Violation]:
    """The correspondence must be consistent with every target interpretation link."""
    violations: list[Violation] = []
    for x, m, role, syn_cat, sem_cat in _interpretation_links(pair.target):
        if syn_cat in corr.categories_for(sem_cat):
            continue
        if role == "basic":
            violations.append(
                Violation(
                    kind="nn-typing-basic",
                    message=(
                        f"target basic '{x.name}' realizes '{m}' at category '{syn_cat}', "
                        f"which is outside the correspondence set of '{sem_cat}'"
                    ),
                    source=x.name,
                    meaning=m,
                    category=syn_cat,
                )
            )
        else:
            violations.append(
                Violation(
                    kind="nn-typing-rule",
                    message=(
                        f"{role} of target rule '{x.name}' realizing '{m}' has "
                        f"category '{syn_cat}', outside the correspondence set of '{sem_cat}'"
                    ),
                    source=x.name,
                    rule=m,
                    category=syn_cat,
                )
            )
    return violations


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


def check_nn_completeness(
    pair: GrammarPair,
    corr: CategoryCorrespondence,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> CompletenessReport:
    """Completeness via homomorphism plus a labeled N-N category correspondence.

    The declared labels themselves are only refutable up to a depth bound;
    run :func:`validate_labels` alongside this check.
    """
    _require_coverage(pair, corr)
    hom = check_homomorphism(pair)
    violations = list(hom.violations)
    violations.extend(_nn_typing_violations(pair, corr))
    violations.extend(_nn_coverage_violations(pair, corr, tuple_cap))
    return CompletenessReport(condition="nn", violations=tuple(violations), subreports=(hom,))


def validate_labels(
    pair: GrammarPair,
    corr: CategoryCorrespondence,
    max_depth: int = DEFAULT_LABEL_DEPTH,
) -> CompletenessReport:
    """Bounded refutation of the declared conjunctive labels.

    For every well-typed semantic derivation tree of a conjunctive category
    (up to ``max_depth``), the target grammar must generate a well-formed
    tree of every category in the correspondence set. Passing is evidence,
    not proof: deeper trees are not examined.
    """
    _require_coverage(pair, corr)
    tgt = pair.target
    sc = tgt.semantics
    violations: list[Violation] = []
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


def find_incompleteness_witness(pair: GrammarPair, max_depth: int) -> SemTree | None:
    """Smallest well-formed source semantic derivation tree with no translation.

    A fixpoint over states, not trees: the state of a semantic tree is
    ``(S, R)``, the source and the target categories that realize it (see
    :func:`~comptrans.pipeline.realized_categories`). The tree is derivable
    when ``S`` is non-empty and untranslatable when ``R`` is empty. Round
    ``k`` applies every semantic rule to the states of round ``k - 1`` and
    keeps each state's least tree in canonical order, which, that order
    being lexicographic, is a root over its children's least trees.

    The result is the least untranslatable tree of the first round that has
    one: the witness a smallest-depth-first, canonical-order search through
    every candidate up to ``max_depth`` finds. None means no witness up to
    ``max_depth``; when a round adds no new state first, the states are
    saturated and None holds at every depth.
    """
    if max_depth < 1:
        raise ComptransError(f"max_depth must be >= 1, got {max_depth}")
    sem = pair.source.semantics.signature
    src, tgt = pair.source.inverse_interpretation, pair.target.inverse_interpretation
    # (S, R) -> (tree_key, tree) of the least tree of that state found so far
    best: dict[tuple[frozenset[str], frozenset[str]], tuple] = {}

    def offer(found: dict, name: str, leaf: bool, children) -> None:
        # children holds one ((S, R), (tree_key, tree)) item per argument
        s_cats = realize_node(src.images(name, leaf), [s for (s, _), _ in children])
        if not s_cats:
            return
        state = (s_cats, realize_node(tgt.images(name, leaf), [r for (_, r), _ in children]))
        key = (name, tuple(k for _, (k, _) in children))
        if state not in found or key < found[state][0]:
            tree = SemLeaf(name) if leaf else SemNode(name, tuple(t for _, (_, t) in children))
            found[state] = (key, tree)

    for m in sem.leaves:
        offer(best, m.name, True, ())
    for depth in itertools.count(1):
        lost = [entry for (_, r), entry in best.items() if not r]
        if lost:
            return min(lost)[1]  # keys differ: a tree has one state
        if depth == max_depth:
            return None
        grown = dict(best)
        for op in sem.ops:
            # a child can only fit an argument some source carrier accepts there
            fits = zip(*(r.arg_list for r in src.images(op.name, False)))
            pools = [[item for item in best.items() if item[0][0] & set(cats)] for cats in fits]
            for children in itertools.product(*pools):
                offer(grown, op.name, False, children)
        if len(grown) == len(best):
            return None
        best = grown


def witness_report(pair: GrammarPair, max_depth: int) -> CompletenessReport:
    """The witness search packaged as a report."""
    witness = find_incompleteness_witness(pair, max_depth)
    return CompletenessReport(condition="witness-search", witness=witness)
