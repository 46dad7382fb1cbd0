"""Semantic analysis, semantic generation, and end-to-end translation.

The semantic component acts as the interlingua: analysis maps a source
derivation tree to all of its semantic derivation trees, generation maps a
semantic derivation tree to all target syntactic derivation trees, and only
then are the candidates filtered for CFG-well-formedness. Analysis and
generation are one relabelling, :func:`~comptrans.trees.relabel`, applied to
a grammar's interpretation and to its inverse; both preserve tree geometry,
and every stage output is fully materialized so a trace can be inspected.
Whether a grammar realizes a semantic tree at all is decided bottom-up by
:func:`realized_categories`, without generating candidates.

The parses of one utterance share their subtrees, since the chart builds
each subtree once. Within one :func:`translate` or :func:`translate_sem`
call every stage (analysis, the well-typedness flag, semantic generation,
the filter, and morphosyntactic generation) keeps one memo over all the
trees it walks, keyed by subtree identity, so each distinct subtree is
handled once per stage. Each stage's output trees share subtrees in turn, so
the next stage's memo hits too. A memo is a plain dict that only the call
holds, so it is freed when the call returns.
"""

from typing import NamedTuple

from .model import CompositionalGrammar, GrammarPair
from .parsing import _generate, morsynan
from .trees import (
    SemTree,
    SynTree,
    enumerate_syn_trees,
    is_cfg_well_formed,
    is_sem_well_typed,
    realize_node,
    relabel,
    tree_depth,
)
# Unused here; bench/tracing.py looks these names up in this module.
from .parsing import morsyngen  # noqa: F401
from .trees import tree_key  # noqa: F401

__all__ = [
    "TranslationTrace", "is_well_formed_sem_tree", "seman", "semgen", "translate", "translate_sem",
    "well_formed_sem_trees",
]


def seman(g: CompositionalGrammar, t: SynTree, memo: dict | None = None) -> list[SemTree]:
    """All semantic derivation trees of ``t``: interpret each node every way.

    Output trees share the geometry of ``t``; the result is never empty
    because interpretation sets are non-empty by construction. ``memo`` is
    :func:`~comptrans.trees.relabel`'s, for ``g``'s interpretation only.
    """
    return relabel(g.interpretation, t, memo)


def semgen(g: CompositionalGrammar, d: SemTree, memo: dict | None = None) -> list[SynTree]:
    """All syntactic derivation trees of ``g`` that analyze to ``d``.

    Candidates may be ill-formed; well-formedness is checked downstream. An
    empty result is a legal value and signals incompleteness of ``g`` for
    ``d``, not a failure. ``memo`` is :func:`~comptrans.trees.relabel`'s, for
    ``g``'s inverse interpretation only.
    """
    return relabel(g.inverse_interpretation, d, memo)


def realized_categories(g: CompositionalGrammar, d: SemTree) -> frozenset[str]:
    """Categories of the CFG-well-formed trees of ``g`` that analyze to ``d``.

    Equal to ``{syn_cat(g, t) for t in semgen(g, d) if is_cfg_well_formed(g, t)}``
    but computed bottom-up in one pass over ``d``: a node is realized at the
    result of every carrier of its symbol whose argument list the children
    are realized at (a leaf's carriers are basics, with empty argument
    lists). Raises :class:`UnknownNameError` on a name the semantic
    component lacks.
    """
    images = g.inverse_interpretation.images(d.name, d.is_leaf)
    below = []
    for c in d.children:
        below.append(realized_categories(g, c))
    return realize_node(images, below)


class TranslationTrace(NamedTuple):
    """Every intermediate set of one translation run.

    ``sem_trees`` pairs each semantic derivation tree with its
    well-typedness, ``target_trees`` pairs each candidate with its
    CFG-well-formedness; ``target_utterances`` are generated from exactly the
    well-formed target trees, deduplicated, in canonical order.
    """

    source_utterance: tuple[str, ...]
    source_trees: tuple[SynTree, ...]
    sem_trees: tuple[tuple[SemTree, bool], ...]
    target_trees: tuple[tuple[SynTree, bool], ...]
    target_utterances: tuple[tuple[str, ...], ...]


def translate(pair: GrammarPair, utterance, max_trees: int | None = None) -> TranslationTrace:
    """Compositional translation: analyze, interpret, generate, filter, render."""
    tokens = tuple(utterance)
    src, tgt = pair.source, pair.target
    source_trees = morsynan(src, tokens, max_trees=max_trees)
    analysed, typed, generated, formed, yields = {}, {}, {}, {}, {}  # one memo per stage

    sem_trees = sorted({d for t in source_trees for d in seman(src, t, analysed)})
    sem_flagged = tuple((d, is_sem_well_typed(src.semantics, d, typed)) for d in sem_trees)

    target_trees = sorted({t2 for d in sem_trees for t2 in semgen(tgt, d, generated)})
    target_flagged = tuple((t2, is_cfg_well_formed(tgt, t2, formed)) for t2 in target_trees)

    # the filter above has checked every kept tree, so generate without checking again
    utterances = sorted({_generate(tgt, t2, yields) for t2, ok in target_flagged if ok})
    return TranslationTrace(
        source_utterance=tokens,
        source_trees=tuple(source_trees),
        sem_trees=sem_flagged,
        target_trees=target_flagged,
        target_utterances=tuple(utterances),
    )


def translate_sem(pair: GrammarPair, d: SemTree) -> list[tuple[str, ...]]:
    """Target utterances for one semantic derivation tree.

    Empty output is an incompleteness witness for ``d``, not an error.
    """
    tgt = pair.target
    formed, yields = {}, {}  # the candidates share subtrees
    out = {_generate(tgt, t, yields) for t in semgen(tgt, d) if is_cfg_well_formed(tgt, t, formed)}
    return sorted(out)


def well_formed_sem_trees(g: CompositionalGrammar, max_depth: int) -> list[SemTree]:
    """All well-formed semantic derivation trees of ``g`` up to ``max_depth``.

    Well-formedness here is the correspondence sense: some CFG-well-formed
    derivation tree of ``g`` analyzes to the semantic tree. Analysis
    preserves depth, so enumerating syntactic trees to the same bound is
    exhaustive.
    """
    out: set[SemTree] = set()
    for cat in sorted(set(g.categories)):
        for t in enumerate_syn_trees(g, cat, max_depth):
            out.update(seman(g, t))
    return sorted(out, key=lambda d: (tree_depth(d), d))


def is_well_formed_sem_tree(g: CompositionalGrammar, d: SemTree) -> bool:
    """Correspondence-based well-formedness of one semantic derivation tree."""
    return bool(realized_categories(g, d))
