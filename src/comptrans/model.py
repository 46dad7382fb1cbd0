"""Data model for CFG-based compositional grammars and their shared semantics.

Both sides of a compositional grammar are the same kind of object, a
many-sorted :class:`Signature`: sorts (categories), leaves of one sort, and
operators from argument sorts to a result sort. The syntactic component has
basic expressions and syntactic rules over syntactic categories; the semantic
component has basic meanings and semantic rules over semantic categories. The
interpretation of a grammar is a :class:`Relabelling` from its syntactic
symbols to semantic ones, and its inverse runs back. Records are named tuples,
like trees; one that caches derived tables subclasses its field tuple. Values
never change after construction and are safe to share between threads; every
invariant is enforced by :func:`validate_grammar` / :func:`validate_semantics`,
which the file loader calls on everything it returns.
"""

import graphlib
import math
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from .errors import GrammarValidationError, SemanticsMismatchError, UnknownNameError

__all__ = [
    "BasicExpression", "BasicMeaning", "CompositionalGrammar", "GrammarPair", "SemanticComponent",
    "SemRule", "SyntacticRule", "validate_grammar", "validate_pair", "validate_semantics",
]

#: A surface template is a tuple of items; ``str`` items are literal terminal
#: tokens, ``int`` items are 1-based argument placeholders.
TemplateItem = str | int


class SignatureKind(NamedTuple):
    """How messages name one side's component, sorts, leaves and operators."""

    component: str
    sort: str
    leaf: str
    op: str


SYNTAX = SignatureKind("grammar", "syntactic category", "basic expression", "rule")
SEMANTICS = SignatureKind("semantic component", "semantic category", "basic meaning", "semantic rule")


def _by_result(sorts: tuple[str, ...], symbols: tuple) -> dict[str, tuple]:
    out: dict[str, list] = {s: [] for s in sorts}
    for x in symbols:
        out[x.result].append(x)
    return {s: tuple(xs) for s, xs in out.items()}


class _SignatureFields(NamedTuple):
    kind: SignatureKind
    name: str
    sorts: tuple[str, ...]
    leaves: tuple
    ops: tuple


class Signature(_SignatureFields):
    """A many-sorted signature: sorts, typed leaves, and typed operators.

    Every symbol has ``name``, ``arg_list`` (the argument sorts) and
    ``result``; a leaf is a nullary symbol whose result is its ``category``.
    ``leaves`` and ``ops`` are put in name order when it is built, so they and
    the per-sort indexes give every walk over symbols the canonical order.
    """

    def __new__(cls, kind, name, sorts, leaves, ops):
        leaves, ops = (tuple(sorted(xs, key=attrgetter("name"))) for xs in (leaves, ops))
        return super().__new__(cls, kind, name, sorts, leaves, ops)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that ``_replace`` sorts too

    @property
    def owner(self) -> str:
        return f"{self.kind.component} '{self.name}'"

    @cached_property
    def leaf_by_name(self) -> dict:
        return {x.name: x for x in self.leaves}

    @cached_property
    def op_by_name(self) -> dict:
        return {x.name: x for x in self.ops}

    @cached_property
    def leaves_by_sort(self) -> dict[str, tuple]:
        return _by_result(self.sorts, self.leaves)

    @cached_property
    def ops_by_result(self) -> dict[str, tuple]:
        return _by_result(self.sorts, self.ops)

    def symbol(self, name: str, leaf: bool):
        """The leaf or operator called ``name``; raises :class:`UnknownNameError` if none."""
        found = (self.leaf_by_name if leaf else self.op_by_name).get(name)
        if found is None:
            kind = self.kind.leaf if leaf else self.kind.op
            raise UnknownNameError(f"{self.owner} has no {kind} '{name}'")
        return found

    def require_sort(self, sort: str) -> None:
        if sort not in self.leaves_by_sort:
            raise UnknownNameError(f"{self.owner} declares no category '{sort}'")

    @cached_property
    def least_depths(self) -> dict[str, float]:
        """The least depth of a well-formed tree of each sort, ``math.inf`` where there is none."""
        from .trees import state_rounds  # trees builds on this module
        depths = dict.fromkeys(self.sorts, math.inf)
        for depth, new in enumerate(state_rounds(self), 1):
            depths.update((sort, depth) for sort, in new)
        return depths


class Relabelling:
    """A relation from the symbols of one signature to those of another.

    ``leaves`` and ``ops`` map every symbol name of ``source`` to the
    ``target`` symbols it may be relabelled to, which its builders list in name
    order. A grammar's interpretation is one, from syntax to semantics;
    :meth:`inverse` gives the way back. Two relabellings are equal only if
    they are the same object.
    """

    __slots__ = ("source", "target", "leaves", "ops")

    def __init__(self, source: Signature, target: Signature, leaves: dict[str, tuple], ops: dict[str, tuple]):
        self.source, self.target, self.leaves, self.ops = source, target, leaves, ops

    def images(self, name: str, leaf: bool) -> tuple:
        table = self.leaves if leaf else self.ops
        if name not in table:
            self.source.symbol(name, leaf)  # raises UnknownNameError
        return table[name]

    def inverse(self) -> "Relabelling":
        """The converse relation; preimages come in name order, as ``source`` lists them."""

        def flip(table, sources, targets):
            out: dict[str, list] = {y.name: [] for y in targets}
            for x in sources:
                for y in table[x.name]:
                    out[y.name].append(x)
            return {n: tuple(xs) for n, xs in out.items()}

        s, t = self.source, self.target
        return Relabelling(t, s, flip(self.leaves, s.leaves, t.leaves), flip(self.ops, s.ops, t.ops))


class BasicMeaning(NamedTuple):
    """An uninterpreted semantic atom with a semantic category."""

    name: str
    category: str

    arg_list = ()
    result = property(attrgetter("category"))


class SemRule(NamedTuple):
    """A named, typed, uninterpreted operator over meanings."""

    name: str
    arg_list: tuple[str, ...]
    result: str

    @property
    def arity(self) -> int:
        return len(self.arg_list)


class _SemanticFields(NamedTuple):
    name: str
    categories: tuple[str, ...]
    meanings: tuple[BasicMeaning, ...]
    rules: tuple[SemRule, ...]


class SemanticComponent(_SemanticFields):
    """The interlingua: semantic categories, basic meanings, semantic rules."""

    @cached_property
    def signature(self) -> Signature:
        return Signature(SEMANTICS, self.name, self.categories, self.meanings, self.rules)


class BasicExpression(NamedTuple):
    """A lexical entry: a surface token sequence with a set of meanings."""

    name: str
    category: str
    surface: tuple[str, ...]
    meanings: tuple[str, ...]  # non-empty, no duplicates

    arg_list = ()
    result = property(attrgetter("category"))


class SyntacticRule(NamedTuple):
    """A named total operation combining typed expressions.

    ``template`` spells out the produced surface: terminals are emitted
    verbatim, placeholder ``i`` is replaced by the utterance of argument
    ``i``. Placeholders may appear in any order relative to ``arg_list``
    (word-order differences) and terminals may be introduced that come from
    no argument (syncategorematic material).
    """

    name: str
    arg_list: tuple[str, ...]
    result: str
    template: tuple[TemplateItem, ...]
    meanings: tuple[str, ...]  # associated semantic rule names, non-empty, no duplicates

    @property
    def arity(self) -> int:
        return len(self.arg_list)


class _GrammarFields(NamedTuple):
    name: str
    categories: tuple[str, ...]
    basics: tuple[BasicExpression, ...]
    rules: tuple[SyntacticRule, ...]
    semantics: SemanticComponent


class CompositionalGrammar(_GrammarFields):
    """A syntactic component plus its interpretation into shared semantics."""

    @cached_property
    def signature(self) -> Signature:
        return Signature(SYNTAX, self.name, self.categories, self.basics, self.rules)

    @cached_property
    def interpretation(self) -> Relabelling:
        """Each basic expression and rule -> the basic meanings or semantic rules it carries."""
        sem = self.semantics.signature
        return Relabelling(
            self.signature,
            sem,
            {b.name: tuple(sem.leaf_by_name[m] for m in sorted(b.meanings)) for b in self.basics},
            {r.name: tuple(sem.op_by_name[m] for m in sorted(r.meanings)) for r in self.rules},
        )

    @cached_property
    def inverse_interpretation(self) -> Relabelling:
        """Each basic meaning and semantic rule -> the basic expressions or rules carrying it."""
        return self.interpretation.inverse()

    @cached_property
    def parse_order(self) -> tuple[SyntacticRule, ...]:
        """The rules, each unary terminal-free rule after every rule that derives its argument.

        A rule whose template is a bare placeholder derives a category from
        another one over the same token span, so running the rules once in
        this order closes a span. A cycle of such rules gives some utterance
        infinitely many derivation trees and raises
        :class:`GrammarValidationError`.
        """
        sorter = graphlib.TopologicalSorter()
        derives = _by_result(self.categories, self.rules)  # declaration order, as validation reports
        for r in self.rules:
            unary = len(r.template) == 1 and isinstance(r.template[0], int)
            sorter.add(r, *(derives[r.arg_list[0]] if unary else ()))
        try:
            return tuple(sorter.static_order())
        except graphlib.CycleError as err:
            cycle = err.args[1]  # each rule derives the argument of the next; first == last
            raise GrammarValidationError(
                "unary terminal-free rule cycle through categories "
                + " -> ".join(r.arg_list[0] for r in cycle)
                + f" (rule '{cycle[-2].name}')"
            ) from None


class GrammarPair(NamedTuple):
    """A source/target grammar pair communicating through one interlingua."""

    source: CompositionalGrammar
    target: CompositionalGrammar


def check_unique(kind: str, names, error=GrammarValidationError) -> None:
    names = list(names)
    if len(set(names)) < len(names):
        first = next(n for i, n in enumerate(names) if n in names[:i])
        raise error(f"duplicate {kind} '{first}'")


def _validate_signature(kind: SignatureKind, sorts, leaves, ops) -> None:
    """The checks both sides share, in declaration order so the first error declared is reported."""
    check_unique(kind.sort, sorts)
    check_unique(kind.leaf, (x.name for x in leaves))
    check_unique(kind.op, (x.name for x in ops))
    sorts = set(sorts)
    for what, symbols in ((kind.leaf, leaves), (kind.op, ops)):
        for x in symbols:
            for c in (*x.arg_list, x.result):
                if c not in sorts:
                    raise GrammarValidationError(f"{what} '{x.name}' uses undeclared category '{c}'")
    for op in ops:
        if not op.arg_list:
            raise GrammarValidationError(
                f"{kind.op} '{op.name}' has arity 0; zero-argument constructs must be {kind.leaf}s"
            )


def validate_semantics(sc: SemanticComponent) -> SemanticComponent:
    """Check all semantic-component invariants; return ``sc`` unchanged."""
    _validate_signature(SEMANTICS, sc.categories, sc.meanings, sc.rules)
    return sc


def _check_template(rule: SyntacticRule) -> None:
    placeholders = [item for item in rule.template if isinstance(item, int)]
    for i in placeholders:
        if not 1 <= i <= rule.arity:
            raise GrammarValidationError(
                f"rule '{rule.name}': placeholder ${i} out of range for arity {rule.arity}"
            )
    for i in range(1, rule.arity + 1):
        n = placeholders.count(i)
        if n == 0:
            raise GrammarValidationError(f"rule '{rule.name}': placeholder ${i} missing from template")
        if n > 1:
            raise GrammarValidationError(f"rule '{rule.name}': placeholder ${i} appears {n} times in template")


def validate_grammar(g: CompositionalGrammar) -> CompositionalGrammar:
    """Check all grammar invariants; return ``g`` unchanged."""
    validate_semantics(g.semantics)
    # basics and rules share one namespace
    check_unique("name", (x.name for x in (*g.basics, *g.rules)))
    _validate_signature(SYNTAX, g.categories, g.basics, g.rules)
    for b in g.basics:
        if not b.surface:
            raise GrammarValidationError(f"basic expression '{b.name}' has an empty surface")
    for r in g.rules:
        _check_template(r)
    # every interpretation link must name a semantic symbol of the same arity
    sem = g.semantics.signature
    for leaf, symbols in ((True, g.basics), (False, g.rules)):
        what, sem_what = (SYNTAX.leaf, SEMANTICS.leaf) if leaf else (SYNTAX.op, SEMANTICS.op)
        for x in symbols:
            if not x.meanings:
                raise GrammarValidationError(f"{what} '{x.name}' has no associated {sem_what}s")
            check_unique("meaning" if leaf else "semantic rule", x.meanings)
            for m in x.meanings:
                target = (sem.leaf_by_name if leaf else sem.op_by_name).get(m)
                if target is None:
                    raise GrammarValidationError(f"{what} '{x.name}' refers to unknown {sem_what} '{m}'")
                if len(target.arg_list) != len(x.arg_list):
                    raise GrammarValidationError(
                        f"{what} '{x.name}' has arity {len(x.arg_list)} but associated {sem_what} "
                        f"'{m}' has arity {len(target.arg_list)}"
                    )
    g.parse_order  # raises on a cycle of unary terminal-free rules
    return g


def validate_pair(source: CompositionalGrammar, target: CompositionalGrammar) -> GrammarPair:
    """Pair two grammars, requiring one identical semantic component."""
    if source.semantics != target.semantics:
        if source.semantics.name != target.semantics.name:
            raise SemanticsMismatchError(
                f"grammars '{source.name}' and '{target.name}' use different semantic "
                f"components ('{source.semantics.name}' vs '{target.semantics.name}')"
            )
        raise SemanticsMismatchError(
            f"grammars '{source.name}' and '{target.name}' both name semantic component "
            f"'{source.semantics.name}' but the declarations differ"
        )
    return GrammarPair(source=source, target=target)
