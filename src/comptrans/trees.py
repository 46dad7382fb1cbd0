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
"""

import itertools
import random
import re
from functools import partial
from operator import attrgetter
from typing import NamedTuple

from .errors import ComptransError
from .model import SEMANTICS, SYNTAX, CompositionalGrammar, Relabelling, SemanticComponent, Signature

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
    return 1 + max(map(tree_depth, t.children), default=0)


def tree_category(c: Component, t: Tree) -> str:
    """Category of a tree: read off the leaf or the top rule only."""
    return c.signature.symbol(t.name, t.is_leaf).result


def is_well_formed(c: Component, t: Tree, memo: dict | None = None) -> bool:
    """True iff every rule node's argument list equals its children's categories.

    Every name is looked up, so an unknown one raises :class:`UnknownNameError`.
    ``memo`` carries each checked subtree's category from one call to the
    next; see :func:`relabel` for how it is keyed and how long it may live.
    """
    symbol = c.signature.symbol
    if memo is None:
        memo = {}

    def category(t: Tree) -> str | None:  # None for an ill-formed tree, which fits no argument
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
        r = symbol(t.name, t.is_leaf)  # a leaf has no arguments and no children
        cat = r.result if tuple(map(category, t.children)) == r.arg_list else None
        memo[id(t)] = (t, cat)
        return cat

    return category(t) is not None


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
    make_leaf, make_node = TREE_TYPES[rel.target.kind]
    images = rel.images
    if memo is None:
        memo = {}

    def go(t: Tree) -> list[Tree]:
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
        names = images(t.name, t.is_leaf)
        if t.is_leaf:
            out = [make_leaf(x.name) for x in names]
        else:
            child_sets = [go(c) for c in t.children]
            out = [make_node(x.name, combo) for x in names for combo in itertools.product(*child_sets)]
        memo[id(t)] = (t, out)
        return out

    return list(go(t))


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
    make_leaf, make_node = TREE_TYPES[sig.kind]
    memo: dict[tuple[str, int], list] = {}

    def trees(sort: str, depth: int) -> list:
        key = (sort, depth)
        got = memo.get(key)
        if got is not None:
            return got
        out = [make_leaf(x.name) for x in sig.leaves_by_sort[sort]]
        if depth >= 2:
            for r in sig.ops_by_result[sort]:
                for combo in itertools.product(*(trees(a, depth - 1) for a in r.arg_list)):
                    out.append(make_node(r.name, combo))
        out.sort()
        memo[key] = out
        return out

    return trees(cat, max_depth)


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
    make_leaf, make_node = TREE_TYPES[sig.kind]
    md = sig.least_depths
    if md[cat] > max_depth:
        return None
    rng = random.Random(seed)

    def grow(sort: str, budget: int) -> Tree:
        # leaves first; a leaf has no arguments, so it always fits the budget
        symbols = (*sig.leaves_by_sort[sort], *sig.ops_by_result[sort])
        x = rng.choice([y for y in symbols if all(md[a] < budget for a in y.arg_list)])
        if not x.arg_list:
            return make_leaf(x.name)
        return make_node(x.name, tuple(grow(a, budget - 1) for a in x.arg_list))

    return grow(cat, max_depth)


# -- serialization ----------------------------------------------------------
#
# Text form: a leaf is its bare name, a node is ``Name(child, child)``.
# JSON form: ``{"basic": n}`` / ``{"meaning": n}`` for leaves and
# ``{"rule": n, "children": [...]}`` for nodes. Round-trips are exact.

_TREE_TOKEN_RE = re.compile(r"[(),]|[^\s(),]+")


def format_tree(t: Tree) -> str:
    if t.is_leaf:
        return t.name
    return f"{t.name}({', '.join(map(format_tree, t.children))})"


def _parse_tree(text: str, types) -> Tree:
    make_leaf, make_node = types
    tokens = _TREE_TOKEN_RE.findall(text)
    pos = 0

    def fail(why: str):
        raise ComptransError(f"cannot parse tree text ({why}): {text!r}")

    def parse():
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end")
        name = tokens[pos]
        if name in "(),":
            fail(f"unexpected '{name}'")
        pos += 1
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            children = []
            if pos < len(tokens) and tokens[pos] == ")":
                pos += 1
                return make_node(name, ())
            while True:
                children.append(parse())
                if pos >= len(tokens):
                    fail("missing ')'")
                tok = tokens[pos]
                pos += 1
                if tok == ")":
                    return make_node(name, tuple(children))
                if tok != ",":
                    fail(f"expected ',' or ')', found '{tok}'")
        return make_leaf(name)

    result = parse()
    if pos != len(tokens):
        fail(f"trailing tokens after tree: {tokens[pos:]}")
    return result


def tree_to_json(t: Tree) -> dict:
    if t.is_leaf:
        return {t.key: t.name}
    return {"rule": t.name, "children": [tree_to_json(c) for c in t.children]}


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
        return make_leaf(obj[key])
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise ComptransError(f"tree JSON 'children' must be a list, got {type(children).__name__}")
    return make_node(obj[key], tuple(_tree_from_json(c, types) for c in children))


parse_syn_tree = partial(_parse_tree, types=TREE_TYPES[SYNTAX])
parse_sem_tree = partial(_parse_tree, types=TREE_TYPES[SEMANTICS])
syn_tree_from_json = partial(_tree_from_json, types=TREE_TYPES[SYNTAX])
sem_tree_from_json = partial(_tree_from_json, types=TREE_TYPES[SEMANTICS])
