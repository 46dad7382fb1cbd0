"""Morphosyntactic analysis and generation.

Analysis returns every CFG-well-formed derivation tree whose generated
utterance equals the input, for any result category; there is no
distinguished start symbol. The parser is a bottom-up span chart: basic
expressions seed spans matching their surface, and each rule's template is
matched over a span by depth-first segmentation (terminal items consume one
token, placeholder items consume a sub-span already derived for the argument
category). Rules are not normalized, so every chart entry is a derivation
tree over the grammar's own named rules.

Unary terminal-free rules derive a new category over an unchanged span, so
each span is iterated to a fixpoint; grammar validation rejects cyclic unary
chains, which bounds the iteration.
"""

import itertools
import os

from .errors import AmbiguityCapError, ComptransError, IllFormedTreeError
from .model import CompositionalGrammar, SyntacticRule
from .trees import SynLeaf, SynNode, SynTree, is_cfg_well_formed, tree_key

DEFAULT_AMBIGUITY_CAP = 10_000
AMBIGUITY_CAP_ENV_VAR = "COMPTRANS_AMBIGUITY_CAP"


def default_ambiguity_cap() -> int:
    """The ambiguity cap from the environment, or the built-in default."""
    raw = os.environ.get(AMBIGUITY_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_AMBIGUITY_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ComptransError(f"{AMBIGUITY_CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ComptransError(f"{AMBIGUITY_CAP_ENV_VAR} must be >= 1, got {cap}")
    return cap


def morsyngen(g: CompositionalGrammar, t: SynTree) -> tuple[str, ...]:
    """Generate the utterance of a CFG-well-formed derivation tree.

    Leaves yield their surface tokens; a rule node instantiates its template,
    splicing each argument's utterance at its placeholder. Ill-formed trees
    are rejected rather than generated from.
    """
    if not is_cfg_well_formed(g, t):
        raise IllFormedTreeError(
            f"cannot generate from ill-formed tree {t!r} in grammar '{g.name}'"
        )
    return _generate(g, t)


def _generate(g: CompositionalGrammar, t: SynTree) -> tuple[str, ...]:
    sig = g.signature
    if t.is_leaf:
        return sig.leaf_by_name[t.name].surface
    rule = sig.op_by_name[t.name]
    out: list[str] = []
    for item in rule.template:
        if isinstance(item, str):
            out.append(item)
        else:
            out.extend(_generate(g, t.children[item - 1]))
    return tuple(out)


class _Chart:
    def __init__(self, cap: int):
        self.cells: dict[tuple[str, int, int], set[SynTree]] = {}
        self.cap = cap
        self.count = 0

    def add(self, cat: str, start: int, end: int, tree: SynTree) -> bool:
        cell = self.cells.setdefault((cat, start, end), set())
        if tree in cell:
            return False
        self.count += 1
        if self.count > self.cap:
            raise AmbiguityCapError(
                f"parsing exceeded the ambiguity cap of {self.cap} derivation trees", self.cap
            )
        cell.add(tree)
        return True

    def trees(self, cat: str, start: int, end: int) -> list[SynTree]:
        return sorted(self.cells.get((cat, start, end), ()), key=tree_key)

    def has(self, cat: str, start: int, end: int) -> bool:
        return (cat, start, end) in self.cells


def _segmentations(rule: SyntacticRule, tokens, start: int, end: int, chart: _Chart):
    """Yield per-argument spans for every way the template covers [start, end)."""
    spans: dict[int, tuple[int, int]] = {}

    def go(item_idx: int, pos: int):
        if item_idx == len(rule.template):
            if pos == end:
                yield dict(spans)
            return
        item = rule.template[item_idx]
        if isinstance(item, str):
            if pos < end and tokens[pos] == item:
                yield from go(item_idx + 1, pos + 1)
            return
        cat = rule.arg_list[item - 1]
        # every derivable expression has at least one token, so spans are non-empty
        for stop in range(pos + 1, end + 1):
            if chart.has(cat, pos, stop):
                spans[item] = (pos, stop)
                yield from go(item_idx + 1, stop)
                del spans[item]

    yield from go(0, start)


def morsynan(
    g: CompositionalGrammar,
    utterance,
    category: str | None = None,
    max_trees: int | None = None,
) -> list[SynTree]:
    """All CFG-well-formed derivation trees that generate ``utterance``.

    ``category`` restricts the result category; by default trees of every
    category are returned. An unparseable utterance gives an empty list.
    Exceeding ``max_trees`` materialized trees raises
    :class:`AmbiguityCapError`; results are never truncated silently.
    """
    tokens = tuple(utterance)
    cap = max_trees if max_trees is not None else default_ambiguity_cap()
    if category is not None:
        g.signature.require_sort(category)
    n = len(tokens)
    if n == 0:
        return []

    chart = _Chart(cap)
    by_surface: dict[tuple[str, ...], list] = {}
    for b in g.basics:
        by_surface.setdefault(b.surface, []).append(b)

    for length in range(1, n + 1):
        for start in range(0, n - length + 1):
            end = start + length
            for b in by_surface.get(tokens[start:end], ()):
                chart.add(b.category, start, end, SynLeaf(b.name))
            changed = True
            while changed:
                changed = False
                for rule in g.rules:
                    for spans in _segmentations(rule, tokens, start, end, chart):
                        pools = [
                            chart.trees(arg_cat, *spans[i + 1])
                            for i, arg_cat in enumerate(rule.arg_list)
                        ]
                        for combo in itertools.product(*pools):
                            if chart.add(rule.result, start, end, SynNode(rule.name, combo)):
                                changed = True

    cats = [category] if category is not None else sorted(set(g.categories))
    result: list[SynTree] = []
    for cat in cats:
        result.extend(chart.trees(cat, 0, n))
    result.sort(key=tree_key)
    return result
