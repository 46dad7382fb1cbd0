"""Syntactic and semantic derivation trees.

Both kinds share one shape, an immutable tuple: a leaf is ``(name,)`` with
``children == ()``, and a node is ``(name, children)``. ``is_leaf`` tells a
leaf from an operator node with no children. The name reads as ``.basic`` on a
syntactic leaf, ``.meaning`` on a semantic leaf and ``.rule`` on a node. Every
function here works on either kind, given the grammar or semantic component
whose :class:`~comptrans.model.Signature` the tree is written in; the
``syn_*``/``sem_*`` names are aliases kept for the public API.

Trees record derivational history only; the node types deliberately admit
ill-formed trees (wrong child count, mismatched categories). Well-formedness
is a separate check, and generation stages downstream rely on being able to
build ill-formed candidates first and filter later.

Canonical order everywhere is the tuple order: by node name, then recursively
by children, with a leaf before a node of the same name. ``sorted`` and ``min``
need no key; enumeration output, reports, and serialized sets all follow it so
runs are reproducible.

Every walk is a plain function calling itself once per child from a loop, so
a tree level costs one frame; a walk over shared subtrees takes its caller's
identity memo (see :func:`relabel`), which dies with the caller's call.
"""

import itertools
import random
import re
from functools import partial
from operator import attrgetter
from typing import NamedTuple

from .errors import ComptransError
from .model import SEMANTICS, SYNTAX, CompositionalGrammar, Relabelling, SemanticComponent, Signature

__all__ = [
    "SemLeaf", "SemNode", "SemTree", "SynLeaf", "SynNode", "SynTree", "enumerate_sem_trees",
    "enumerate_syn_trees", "format_tree", "is_cfg_well_formed", "is_sem_well_typed", "parse_sem_tree",
    "parse_syn_tree", "random_sem_tree", "sem_cat", "sem_tree_from_json", "syn_cat", "syn_tree_from_json",
    "tree_depth", "tree_key", "tree_to_json",
]

Component = CompositionalGrammar | SemanticComponent


class _Leaf(NamedTuple):
    name: str
    children = ()
    is_leaf = True


class _Node(NamedTuple):
    name: str
    children: tuple
    is_leaf = False
    rule = property(attrgetter("name"))


class SynLeaf(_Leaf):
    __slots__ = ()
    key = "basic"
    basic = property(attrgetter("name"))


class SynNode(_Node):
    __slots__ = ()


class SemLeaf(_Leaf):
    __slots__ = ()
    key = "meaning"
    meaning = property(attrgetter("name"))


class SemNode(_Node):
    __slots__ = ()


SynTree = SynLeaf | SynNode
SemTree = SemLeaf | SemNode
Tree = SynTree | SemTree

#: the leaf and node types of trees written in each kind of signature
TREE_TYPES = {SYNTAX: (SynLeaf, SynNode), SEMANTICS: (SemLeaf, SemNode)}

def tree_key(t: Tree) -> Tree:
    """Sort key realizing the canonical order: a tree is its own key."""
    return t


def tree_depth(t: Tree) -> int:
    """Depth with leaves at 1."""
    depth = 0
    for c in t.children:
        depth = max(depth, tree_depth(c))
    return depth + 1


def tree_category(c: Component, t: Tree) -> str:
    """Category of a tree: read off the leaf or the top rule only."""
    return c.signature.symbol(t.name, t.is_leaf).result


def is_well_formed(c: Component, t: Tree, memo: dict | None = None) -> bool:
    """True iff every rule node's argument list equals its children's categories.

    Every name is looked up, so an unknown one raises :class:`UnknownNameError`.
    ``memo`` carries each checked subtree's category from one call to the
    next; see :func:`relabel` for how it is keyed and how long it may live.
    """
    return _category(t, c.signature, {} if memo is None else memo) is not None


def _category(t: Tree, sig: Signature, memo: dict) -> str | None:
    """The category of a well-formed ``t``; None for an ill-formed one, which fits no argument."""
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    r = sig.symbol(t.name, t.is_leaf)  # a leaf has no arguments and no children
    below = []
    for child in t.children:
        below.append(_category(child, sig, memo))
    cat = r.result if tuple(below) == r.arg_list else None
    memo[id(t)] = (t, cat)
    return cat


syn_cat = sem_cat = tree_category
is_cfg_well_formed = is_sem_well_typed = is_well_formed


def relabel(rel: Relabelling, t: Tree, memo: dict | None = None) -> list[Tree]:
    """Every tree of ``t``'s shape whose node names are images of ``t``'s under ``rel``.

    Results come in canonical order. Images are taken in name order over
    children already in canonical order, and a product of sorted lists is
    lexicographic, so nothing needs sorting afterwards.

    Each distinct subtree is relabelled once: ``memo`` maps ``id(subtree)``
    to ``(subtree, images)``, and the entry holds the subtree so that its id
    cannot be reused while the memo lives. One memo passed to every call over
    trees that share subtrees, as the parses of one utterance do, walks each
    shared subtree once, and its images are then shared as well. A memo
    serves one relabelling only and holds every tree it has seen, so drop it
    when the trees it was used on are done with. The returned list is the
    caller's own.
    """
    return list(_relabel(t, rel, {} if memo is None else memo))


def _relabel(t: Tree, rel: Relabelling, memo: dict) -> list[Tree]:
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    make_leaf, make_node = TREE_TYPES[rel.target.kind]
    names = rel.images(t.name, t.is_leaf)
    if t.is_leaf:
        out = [make_leaf(x.name) for x in names]
    else:
        child_sets = []
        for child in t.children:
            child_sets.append(_relabel(child, rel, memo))
        out = [make_node(x.name, combo) for x in names for combo in itertools.product(*child_sets)]
    memo[id(t)] = (t, out)
    return out


# -- enumeration ------------------------------------------------------------
#
# One engine serves both tree kinds. It reads the signature's per-sort
# indexes, which list symbols in name order.


def enumerate_trees(c: Component, cat: str, max_depth: int) -> list[Tree]:
    """All well-formed trees of ``cat`` with depth <= ``max_depth``, canonical order."""
    sig = c.signature
    sig.require_sort(cat)
    if max_depth < 1:
        raise ComptransError(f"max_depth must be >= 1, got {max_depth}")
    return _enumerate(cat, max_depth, sig, {})


def _enumerate(sort: str, depth: int, sig: Signature, memo: dict) -> list[Tree]:
    """The trees of ``sort`` up to ``depth``; ``memo`` maps ``(sort, depth)`` to them."""
    got = memo.get((sort, depth))
    if got is not None:
        return got
    make_leaf, make_node = TREE_TYPES[sig.kind]
    out = [make_leaf(x.name) for x in sig.leaves_by_sort[sort]]
    if depth >= 2:
        for r in sig.ops_by_result[sort]:
            pools = []
            for a in r.arg_list:
                pools.append(_enumerate(a, depth - 1, sig, memo))
            out.extend(make_node(r.name, combo) for combo in itertools.product(*pools))
    out.sort()
    memo[sort, depth] = out
    return out


enumerate_syn_trees = enumerate_sem_trees = enumerate_trees


def realize_node(images, below) -> frozenset[str]:
    """Categories a node is realized at, given its symbol's carriers ``images``.

    ``below`` holds the categories each child is realized at; the node is
    realized at the result of every carrier whose argument list the children
    fit.
    """
    return frozenset(
        r.result
        for r in images
        if len(r.arg_list) == len(below) and all(a in cats for a, cats in zip(r.arg_list, below))
    )


def state_rounds(sig: Signature, sides=(), max_depth: int | None = None):
    """Round by round, the states first reached by the well-formed trees over ``sig``.

    A tree's state is its sort, followed by the categories at which each
    relabelling in ``sides`` realizes it (:func:`realize_node`, bottom-up); a
    tree that some side other than the last realizes nowhere is dropped. Round
    ``k`` maps each new state to its least tree, of depth ``k``: a root over
    its children's least trees, the canonical order being lexicographic. The
    rounds stop after one adding no state, when no tree of any depth has a
    state not yet yielded, or after ``max_depth`` rounds if given.
    """
    if max_depth is not None and max_depth < 1:
        raise ComptransError(f"max_depth must be >= 1, got {max_depth}")
    make_leaf, make_node = TREE_TYPES[sig.kind]
    best: dict = {}  # state -> the least tree of that state found so far
    for _ in itertools.count() if max_depth is None else range(max_depth):
        grown = dict(best)
        leaf = not best  # the first round builds the leaves, every later one the operators
        pools: dict[str, list] = {s: [] for s in sig.sorts}  # sort -> its (state, tree) items
        for item in best.items():
            pools[item[0][0]].append(item)
        for x in sig.leaves if leaf else sig.ops:
            carriers = [side.images(x.name, leaf) for side in sides]
            for children in itertools.product(*(pools[a] for a in x.arg_list)):
                state = (x.result,)
                for i, c in enumerate(carriers, 1):
                    if state[-1]:  # the sides after one realizing nothing are skipped
                        state += (realize_node(c, [s[i] for s, _ in children]),)
                if len(state) <= len(sides):  # a side before the last realizes nothing
                    continue
                tree = make_leaf(x.name) if leaf else make_node(x.name, tuple(t for _, t in children))
                if state not in grown or tree < grown[state]:
                    grown[state] = tree
        new = {state: tree for state, tree in grown.items() if state not in best}
        if not new:
            return
        yield new
        best = grown


def random_sem_tree(c: Component, cat: str, max_depth: int, seed: int) -> Tree | None:
    """One well-formed tree of ``cat`` with depth <= ``max_depth``, or None.

    Deterministic for a given seed; every returned tree is a member of
    ``enumerate_trees(c, cat, max_depth)``.
    """
    sig = c.signature
    sig.require_sort(cat)
    if sig.least_depths[cat] > max_depth:
        return None
    return _grow(cat, max_depth, sig, random.Random(seed))


def _grow(sort: str, budget: int, sig: Signature, rng: random.Random) -> Tree:
    # leaves first; a leaf has no arguments, so it always fits the budget
    md = sig.least_depths
    symbols = (*sig.leaves_by_sort[sort], *sig.ops_by_result[sort])
    x = rng.choice([y for y in symbols if all(md[a] < budget for a in y.arg_list)])
    make_leaf, make_node = TREE_TYPES[sig.kind]
    if not x.arg_list:
        return make_leaf(x.name)
    children = []
    for a in x.arg_list:
        children.append(_grow(a, budget - 1, sig, rng))
    return make_node(x.name, tuple(children))


# -- serialization ----------------------------------------------------------
#
# Text form: a leaf is its bare name, a node is ``Name(child, child)``.
# JSON form: ``{"basic": n}`` / ``{"meaning": n}`` for leaves and
# ``{"rule": n, "children": [...]}`` for nodes. Round-trips are exact.

_TREE_TOKEN_RE = re.compile(r"[(),]|[^\s(),]+")


def format_tree(t: Tree) -> str:
    if t.is_leaf:
        return t.name
    parts = []
    for c in t.children:
        parts.append(format_tree(c))
    return f"{t.name}({', '.join(parts)})"


def _parse_tree(text: str, types) -> Tree:
    tokens = _TREE_TOKEN_RE.findall(text)
    tree, pos = _parse_subtree(text, tokens, 0, types)
    if pos != len(tokens):
        raise _tree_text_error(text, f"trailing tokens after tree: {tokens[pos:]}")
    return tree


def _parse_subtree(text: str, tokens: list[str], pos: int, types) -> tuple[Tree, int]:
    """The tree whose text starts at ``tokens[pos]``, and the position just past it."""
    make_leaf, make_node = types
    if pos >= len(tokens):
        raise _tree_text_error(text, "unexpected end")
    name = tokens[pos]
    if name in "(),":
        raise _tree_text_error(text, f"unexpected '{name}'")
    pos += 1
    if pos == len(tokens) or tokens[pos] != "(":
        return make_leaf(name), pos
    pos += 1
    if pos < len(tokens) and tokens[pos] == ")":
        return make_node(name, ()), pos + 1
    children = []
    while True:
        child, pos = _parse_subtree(text, tokens, pos, types)
        children.append(child)
        if pos >= len(tokens):
            raise _tree_text_error(text, "missing ')'")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            return make_node(name, tuple(children)), pos
        if tok != ",":
            raise _tree_text_error(text, f"expected ',' or ')', found '{tok}'")


def _tree_text_error(text: str, why: str) -> ComptransError:
    return ComptransError(f"cannot parse tree text ({why}): {text!r}")


def tree_to_json(t: Tree) -> dict:
    """``t``'s JSON form; a subtree object met twice in ``t`` is one dict, so the result is read-only."""
    return _to_json(t, {})


def _to_json(t: Tree, memo: dict) -> dict:
    """``t``'s JSON form; ``memo`` is keyed as :func:`relabel`'s, so a subtree met again is one dict."""
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    if t.is_leaf:
        doc = {t.key: t.name}
    else:
        children = []
        for c in t.children:
            children.append(_to_json(c, memo))
        doc = {"rule": t.name, "children": children}
    memo[id(t)] = (t, doc)
    return doc


def _tree_from_json(obj, types) -> Tree:
    make_leaf, make_node = types
    if not isinstance(obj, dict):
        raise ComptransError(f"tree JSON must be an object, got {type(obj).__name__}")
    key = make_leaf.key if make_leaf.key in obj else "rule"
    if key not in obj:
        raise ComptransError(f"tree JSON needs a '{make_leaf.key}' or 'rule' key: {obj!r}")
    if not isinstance(obj[key], str):
        raise ComptransError(f"tree JSON '{key}' must be a string, got {type(obj[key]).__name__}")
    if key != "rule":
        if "rule" in obj or "children" in obj:
            raise ComptransError(f"tree JSON with a '{key}' key is a leaf and has no 'rule' or 'children': {obj!r}")
        return make_leaf(obj[key])
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise ComptransError(f"tree JSON 'children' must be a list, got {type(children).__name__}")
    nodes = []
    for c in children:
        nodes.append(_tree_from_json(c, types))
    return make_node(obj[key], tuple(nodes))


parse_syn_tree = partial(_parse_tree, types=TREE_TYPES[SYNTAX])
parse_sem_tree = partial(_parse_tree, types=TREE_TYPES[SEMANTICS])
syn_tree_from_json = partial(_tree_from_json, types=TREE_TYPES[SYNTAX])
sem_tree_from_json = partial(_tree_from_json, types=TREE_TYPES[SEMANTICS])
