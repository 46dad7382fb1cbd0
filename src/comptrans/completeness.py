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
* ``validate_labels`` refutes the conjunctive labels the target grammar
  cannot honor, and ``find_incompleteness_witness``, the ground truth, finds
  the least well-typed source-derivable semantic tree with no translation.
  Both run :func:`~comptrans.trees.state_rounds`, one bottom-up fixpoint over
  the states of well-typed semantic trees, a tree's sort and the categories
  that realize it, until no new state appears; there are finitely many
  states, so it always stops, and the answer holds at every depth.

A passing n1 check is a proof, and so is a passing nn check whose labels pass;
a witness is always a real counterexample.
"""

import itertools
import math
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import CorrespondenceError, TupleCapError
from .model import CompositionalGrammar, GrammarPair
from .trees import SemTree, format_tree, realize_node, state_rounds

# Unused here; bench/tracing.py times the calls made through these names, so
# they stay bound in this module.
from .pipeline import translate_sem, well_formed_sem_trees  # noqa: F401
from .trees import enumerate_sem_trees  # noqa: F401

__all__ = [
    "CONJUNCTIVE", "DISJUNCTIVE", "CategoryCorrespondence", "CompletenessReport", "CorrespondenceEntry",
    "Violation", "check_homomorphism", "check_n1_completeness", "check_nn_completeness",
    "find_incompleteness_witness", "infer_n1_map", "n1_correspondence", "validate_labels",
    "witness_report",
]

CONJUNCTIVE = "conjunctive"
DISJUNCTIVE = "disjunctive"

DEFAULT_TUPLE_CAP = 10**6


class _EntryFields(NamedTuple):
    categories: tuple[str, ...]
    label: str  # CONJUNCTIVE or DISJUNCTIVE


class CorrespondenceEntry(_EntryFields):
    """One semantic category's target categories, sorted without repeats, and its label."""

    __slots__ = ()

    def __new__(cls, categories, label):
        return super().__new__(cls, tuple(sorted(set(categories))), label)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that ``_replace`` sorts too


class _CorrespondenceFields(NamedTuple):
    entries: tuple[tuple[str, CorrespondenceEntry], ...]


class CategoryCorrespondence(_CorrespondenceFields):
    """Map from semantic categories to sets of target syntactic categories.

    ``entries`` is put in semantic-category order when it is built. Every check
    that reads a correspondence first rejects an invalid one.
    """

    def __new__(cls, entries):
        return super().__new__(cls, tuple(sorted(entries, key=itemgetter(0))))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that ``_replace`` sorts too

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
        (sem_cat, CorrespondenceEntry((syn_cat,), CONJUNCTIVE)) for sem_cat, syn_cat in mapping.items()
    )


def _correspondence_errors(pair: GrammarPair, entries):
    """``(index, message)`` for each bad ``(semantic category, target categories, label)``, in order.

    An entry is bad when its semantic category is unknown or already has an
    entry, its set is empty, its label is not one of the two, or its set names
    a category the target grammar does not declare.
    """
    sem_cats = set(pair.source.semantics.categories)
    target_cats = set(pair.target.categories)
    seen = set()
    for i, (sem_cat, cats, label) in enumerate(entries):
        if sem_cat not in sem_cats:
            yield i, f"correspondence names unknown semantic category '{sem_cat}'"
        elif sem_cat in seen:
            yield i, f"duplicate correspondence for semantic category '{sem_cat}'"
        elif not cats:
            yield i, f"correspondence set for '{sem_cat}' is empty"
        elif label not in (CONJUNCTIVE, DISJUNCTIVE):
            yield i, f"correspondence for '{sem_cat}' has label '{label}', not 'conjunctive' or 'disjunctive'"
        elif undeclared := [c for c in cats if c not in target_cats]:
            yield i, (
                f"correspondence for '{sem_cat}' names '{undeclared[0]}', which grammar "
                f"'{pair.target.name}' does not declare"
            )
        seen.add(sem_cat)


class Violation(NamedTuple):
    """One itemized reason a check failed."""

    kind: str
    message: str
    source: str | None = None      # offending source-grammar basic or rule
    meaning: str | None = None     # basic meaning involved
    rule: str | None = None        # semantic rule involved
    category: str | None = None    # category involved
    arg_tuple: tuple[str, ...] | None = None  # disjunctive-position tuple
    sem_tree: SemTree | None = None


class CompletenessReport(NamedTuple):
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
    for b in src.signature.leaves:
        for m in (x.name for x in src.interpretation.leaves[b.name]):
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
    for r in src.signature.ops:
        for m in (x.name for x in src.interpretation.ops[r.name]):
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
    """Every interpretation link of ``g``, basics then rules, each in name order.

    Yields ``(carrier, meaning, role, syntactic category, semantic category)``
    where ``role`` is ``"basic"``, ``"argument <i>"`` (1-based) or ``"result"``.
    """
    interp = g.interpretation
    for b in g.signature.leaves:
        for m in interp.leaves[b.name]:
            yield b, m.name, "basic", b.category, m.category
    for r in g.signature.ops:
        for sem in interp.ops[r.name]:
            for i, (syn_arg, sem_arg) in enumerate(zip(r.arg_list, sem.arg_list), start=1):
                yield r, sem.name, f"argument {i}", syn_arg, sem_arg
            yield r, sem.name, "result", r.result, sem.result


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
    for _, message in _correspondence_errors(pair, ((c, *e) for c, e in corr.entries)):
        raise CorrespondenceError(message)
    missing = [c for c in pair.source.semantics.categories if c not in corr.by_category]
    if missing:
        raise CorrespondenceError(
            f"correspondence has no entry for semantic categories: {', '.join(sorted(missing))}"
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

    A case fixes one category per disjunctive argument, keeps each conjunctive
    argument free within its set, and, for a conjunctive result, fixes the
    result category. A basic meaning is a symbol with no arguments, so its
    cases are the categories of a conjunctive set, or one case for a
    disjunctive set. A case is covered when the node over children realized
    at its argument categories is realized at its result.
    """
    tgt = pair.target
    sem_sig = tgt.semantics.signature
    violations: list[Violation] = []
    for leaf, symbols in ((True, sem_sig.leaves), (False, sem_sig.ops)):
        for sem in symbols:
            disj = [corr.label_for(c) == DISJUNCTIVE for c in sem.arg_list]
            choices = [
                [(c,) for c in corr.categories_for(a)] if d else [corr.categories_for(a)]
                for a, d in zip(sem.arg_list, disj)
            ]
            result_set = corr.categories_for(sem.result)
            result_label = corr.label_for(sem.result)
            result_conj = result_label == CONJUNCTIVE

            n_cases = math.prod(map(len, choices)) * (len(result_set) if result_conj else 1)
            if not leaf and n_cases > tuple_cap:
                raise TupleCapError(
                    f"semantic rule '{sem.name}' needs {n_cases} correspondence tuples, "
                    f"over the cap of {tuple_cap}",
                    tuple_cap,
                )

            carriers = tgt.inverse_interpretation.images(sem.name, leaf)
            for below in itertools.product(*choices):
                realized = realize_node(carriers, below)
                if result_conj:
                    missing = [c for c in result_set if c not in realized]
                else:
                    missing = [None] if realized.isdisjoint(result_set) else []
                tup = tuple(cats[0] for cats, d in zip(below, disj) if d)
                for req in missing:
                    shown = req if req is not None else f"any of {{{', '.join(result_set)}}}"
                    if leaf:
                        where = f"of category '{req}'" if req is not None else f"in {shown}"
                        v = Violation(
                            kind="missing-basic",
                            message=f"meaning '{sem.name}' ({result_label} '{sem.result}') has no target basic {where}",
                            meaning=sem.name,
                            category=req,
                        )
                    else:
                        v = Violation(
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
                    violations.append(v)
    return violations


def check_nn_completeness(
    pair: GrammarPair,
    corr: CategoryCorrespondence,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> CompletenessReport:
    """Completeness via homomorphism plus a labeled N-N category correspondence.

    The declared labels are assumed; :func:`validate_labels` decides them.
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
    max_depth: int | None = None,
) -> CompletenessReport:
    """Refutation of the declared conjunctive labels, decided over states.

    Every well-typed semantic tree of a conjunctive category must have a
    well-formed target realization at every category of its correspondence
    set. Each failing state (category, target categories realizing the tree)
    is reported once per missing category, with its least tree by depth and
    then canonical order. A pass is exact, unless ``max_depth`` stops the
    rounds before the states saturate.
    """
    _require_coverage(pair, corr)
    tgt = pair.target
    rounds = state_rounds(tgt.semantics.signature, [tgt.inverse_interpretation], max_depth)
    # trees differ, since a tree has one state, so the sort never compares R
    states = sorted((sem_cat, d, r) for new in rounds for (sem_cat, r), d in new.items())
    violations = tuple(
        Violation(
            kind="label",
            message=(
                f"'{sem_cat}' is labeled conjunctive but {format_tree(d)} has no "
                f"well-formed target realization of category '{wanted}'"
            ),
            category=wanted,
            sem_tree=d,
        )
        for sem_cat, d, realized in states
        if corr.label_for(sem_cat) == CONJUNCTIVE
        for wanted in corr.categories_for(sem_cat)
        if wanted not in realized
    )
    return CompletenessReport(condition="labels", violations=violations)


def find_incompleteness_witness(pair: GrammarPair, max_depth: int | None = None) -> SemTree | None:
    """Smallest well-typed source-derivable semantic tree with no translation.

    The least tree, by depth and then canonical order, whose state (sort,
    source categories, target categories) has no target category. None means no
    witness at any depth, or, given ``max_depth``, none up to that depth.
    """
    src, tgt = pair.source, pair.target
    sides = [src.inverse_interpretation, tgt.inverse_interpretation]
    for new in state_rounds(src.semantics.signature, sides, max_depth):
        lost = [tree for (_, _, r), tree in new.items() if not r]
        if lost:
            return min(lost)
    return None


def witness_report(pair: GrammarPair, max_depth: int | None = None) -> CompletenessReport:
    """The witness search packaged as a report."""
    witness = find_incompleteness_witness(pair, max_depth)
    return CompletenessReport(condition="witness-search", witness=witness)
