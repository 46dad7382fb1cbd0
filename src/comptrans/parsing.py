"""Morphosyntactic analysis and generation.

Analysis returns every CFG-well-formed derivation tree whose generated
utterance equals the input, for any result category; there is no
distinguished start symbol. The parser is a bottom-up span chart: basic
expressions seed spans matching their surface, and each rule's template is
matched over a span by depth-first segmentation (terminal items consume one
token, placeholder items consume a sub-span already derived for the argument
category). Rules are not normalized, so every chart entry is a derivation
tree over the grammar's own named rules.

Spans are closed shortest first, and each rule runs once per span, in the
grammar's ``parse_order``. Only a unary terminal-free rule reads the span it
writes; that order puts it after every rule deriving its argument, so one
pass suffices. A tree's yield fixes its span, so every tree is built once and
the chart holds no duplicates.
"""

import itertools

from .errors import AmbiguityCapError, IllFormedTreeError
from .model import CompositionalGrammar, SyntacticRule
from .trees import SynLeaf, SynNode, SynTree, is_cfg_well_formed

__all__ = ["DEFAULT_AMBIGUITY_CAP", "morsynan", "morsyngen"]

DEFAULT_AMBIGUITY_CAP = 10_000


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


def _generate(g: CompositionalGrammar, t: SynTree, memo: dict | None = None) -> tuple[str, ...]:
    """The utterance of ``t``, which must be CFG-well-formed; ``memo`` is keyed as ``relabel``'s."""
    if memo is None:
        memo = {}
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    if t.is_leaf:
        out = g.signature.leaf_by_name[t.name].surface
    else:
        parts: list[str] = []
        for item in g.signature.op_by_name[t.name].template:
            if isinstance(item, str):
                parts.append(item)
            else:
                parts.extend(_generate(g, t.children[item - 1], memo))
        out = tuple(parts)
    memo[id(t)] = (t, out)
    return out


class _Chart:
    """Derivation trees by (category, start) -> end, counted against the cap."""

    def __init__(self, cap: int):
        self.ends: dict[tuple[str, int], dict[int, list[SynTree]]] = {}
        self.cap = cap
        self.count = 0

    def add(self, cat: str, start: int, end: int, tree: SynTree) -> None:
        self.count += 1
        if self.count > self.cap:
            raise AmbiguityCapError(
                f"parsing exceeded the ambiguity cap of {self.cap} derivation trees", self.cap
            )
        self.ends.setdefault((cat, start), {}).setdefault(end, []).append(tree)


def _segmentations(rule: SyntacticRule, tokens, start: int, end: int, chart: _Chart) -> list[list]:
    """The argument trees, one list per argument, for every way the template covers [start, end)."""
    template, args = rule.template, rule.arg_list
    last = len(template) - 1
    partial: list[tuple[int, dict]] = [(start, {})]  # (position reached, placeholder -> trees)
    for idx, item in enumerate(template):
        grown = []
        for pos, pools in partial:
            if isinstance(item, str):
                if pos < end and tokens[pos] == item:
                    grown.append((pos + 1, pools))
                continue
            ends = chart.ends.get((args[item - 1], pos), {})
            # the last item must reach ``end``; every derivable expression has a token
            for stop in [end] if idx == last else [e for e in ends if e < end]:
                if stop in ends:
                    grown.append((stop, {**pools, item: ends[stop]}))
        if not grown:
            return []
        partial = grown
    return [[pools[i] for i in range(1, len(args) + 1)] for pos, pools in partial if pos == end]


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
    cap = max_trees if max_trees is not None else DEFAULT_AMBIGUITY_CAP
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
            for rule in g.parse_order:
                for pools in _segmentations(rule, tokens, start, end, chart):
                    for combo in itertools.product(*pools):
                        chart.add(rule.result, start, end, SynNode(rule.name, combo))

    cats = [category] if category is not None else g.categories
    return sorted(t for cat in cats for t in chart.ends.get((cat, 0), {}).get(n, ()))
