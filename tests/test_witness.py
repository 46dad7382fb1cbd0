"""The incompleteness witness, decided over states, against the enumeration search.

``find_incompleteness_witness`` runs a bottom-up fixpoint over the states
(sort, source categories, target categories) of well-typed semantic trees.
The reference is the search it replaced (``oracles.witness_by_enumeration``):
every well-typed source-derivable semantic tree up to the depth bound,
smallest depth first and then in canonical order, translated one by one.
"""

import math
import random
import time

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from comptrans import (
    BasicExpression,
    BasicMeaning,
    CompositionalGrammar,
    SemanticComponent,
    SemLeaf,
    SemNode,
    SemRule,
    SyntacticRule,
    find_incompleteness_witness,
    format_tree,
    tree_depth,
    validate_grammar,
    validate_pair,
    validate_semantics,
)
from oracles import witness_by_enumeration
from test_cli import run_cli
from test_random_grammars import MAX_SEM_TREES, random_component, random_grammar

DEEP = 60


def draw_pair(seed: int):
    rng = random.Random(seed)
    sc = random_component(rng)
    return validate_pair(random_grammar(rng, "src", sc), random_grammar(rng, "tgt", sc))


def analyses_up_to(g, depth: int, carriers=None) -> int:
    """How many (syntactic tree, interpretation) pairs of depth <= ``depth`` ``g`` has.

    That is how many semantic trees the enumeration search builds before
    deduplicating, counted without building them. Given the target's
    ``carriers`` (its inverse interpretation), each pair is weighted by the
    product of its symbols' carrier counts: how many target candidates
    generation builds from it.
    """

    def weight(names, leaf: bool) -> int:
        return sum(len(carriers.images(m, leaf)) if carriers else 1 for m in names)

    leaves = {c: sum(weight(b.meanings, True) for b in g.basics if b.category == c) for c in g.categories}
    count = dict(leaves)
    for _ in range(depth - 1):
        count = {
            c: leaves[c]
            + sum(weight(r.meanings, False) * math.prod(count[a] for a in r.arg_list) for r in g.rules if r.result == c)
            for c in g.categories
        }
    return sum(count.values())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), depth=st.integers(min_value=1, max_value=4))
# 1,446 source analyses, but 73,326,055 target candidates
@example(seed=4294966442, depth=4)
def test_fixpoint_matches_enumeration(seed, depth):
    pair = draw_pair(seed)
    candidates = analyses_up_to(pair.source, depth, pair.target.inverse_interpretation)
    assume(max(analyses_up_to(pair.source, depth), candidates) <= MAX_SEM_TREES)
    expected = witness_by_enumeration(pair, depth)
    assert find_incompleteness_witness(pair, depth) == expected
    # a deeper bound only adds candidates after every shallower one
    deep = find_incompleteness_witness(pair, DEEP)
    if expected is not None:
        assert deep == expected
    else:
        assert deep is None or tree_depth(deep) > depth
    # the states saturate well within DEEP rounds, so the unbounded search agrees
    assert find_incompleteness_witness(pair) == deep


S_S_GRAMMAR = """\
semantics ss-sem
  semcat Sbar
  meaning a : Sbar
  mrule C : ( Sbar Sbar ) -> Sbar

grammar ss uses ss-sem
  syncat S
  basic a : S = "a" => a
  rule R : ( S S ) -> S = $1 $2 => C
"""


def test_binary_recursive_pair_is_decided_quickly(tmp_path):
    # t(d) = 1 + t(d-1)^2 candidate trees: 458,330 up to depth 6
    (tmp_path / "ss.cg").write_text(S_S_GRAMMAR, encoding="utf-8")
    pair_file = tmp_path / "ss.cgp"
    pair_file.write_text("semantics ss.cg\nsource    ss.cg\ntarget    ss.cg\n", encoding="utf-8")
    budget = 2.0
    for extra in ((), ("--depth", str(DEEP))):
        start = time.perf_counter()
        code, out, err = run_cli("witness", pair_file, *extra)
        elapsed = time.perf_counter() - start
        assert (code, out, err) == (0, "none\n", "")
        assert elapsed < budget, f"witness {' '.join(extra)} took {elapsed:.2f}s, budget {budget}s"


def test_deep_bound_is_exact_on_fixtures(enfr_broken, enfr_masc):
    # the depth-3 witness is the least at any bound; enfr_masc saturates with none
    assert find_incompleteness_witness(enfr_broken.pair, DEEP) == SemNode(
        "M1", (SemLeaf("def"), SemLeaf("house"))
    )
    assert find_incompleteness_witness(enfr_masc.pair, DEEP) is None


def chain_pair(seed: int):
    """A pair whose semantic rules are unary and chain the categories K0 -> K1 -> ... -> Kn.

    Each link has one or two rules. The target realizes every category in two
    variants, X and Y, chosen per basic meaning, and one rule into K3 or above
    has a target carrier for X only, so every witness is a chain over a Y meaning
    through that rule: depth 4 or more, and the least of several such chains
    once a link below it has two rules or several meanings are Y.
    """
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    meanings = tuple(BasicMeaning(f"m{i}", "K0") for i in range(1, rng.randint(2, 4) + 1))
    links = [(i, f"F{i}{s}") for i in range(1, n + 1) for s in "ab"[: rng.randint(1, 2)]]
    rules = tuple(SemRule(name, (f"K{i - 1}",), f"K{i}") for i, name in links)
    sc = validate_semantics(SemanticComponent("chain-sem", tuple(f"K{i}" for i in range(n + 1)), meanings, rules))
    gap = rng.choice([name for i, name in links if i >= 3])
    y_meanings = set(rng.sample([m.name for m in meanings], rng.randint(1, len(meanings))))

    def grammar(name, variants):
        cats = tuple(f"{v}{i}" for v in variants for i in range(n + 1))
        variant = {m.name: variants[-1] if m.name in y_meanings else variants[0] for m in meanings}
        basics = tuple(BasicExpression(f"b{m}", f"{v}0", ("u",), (m,)) for m, v in variant.items())
        syn_rules = tuple(
            SyntacticRule(f"{v}{r}", (f"{v}{i - 1}",), f"{v}{i}", (1, "v"), (r,))
            for v in variants
            for i, r in links
            if not (v == "Y" and r == gap)
        )
        return validate_grammar(CompositionalGrammar(name, cats, basics, syn_rules, sc))

    return validate_pair(grammar("src", "A"), grammar("tgt", "XY"))


# a depth-7 witness, F6b(F5a(F4a(F3a(F2a(F1a(m2)))))): the gap is the second
# rule into K6, two links below it have two rules, and m2 is the lesser of the
# two Y meanings while m1 is X
CHAIN_SEED = 27


def test_deep_chain_witness_matches_enumeration():
    pair = chain_pair(CHAIN_SEED)
    # the chain's trees are at most n + 1 deep, so the deep enumeration is exhaustive
    expected = witness_by_enumeration(pair, DEEP)
    assert tree_depth(expected) >= 4
    assert format_tree(expected) == "F6b(F5a(F4a(F3a(F2a(F1a(m2))))))"
    for depth in (tree_depth(expected) - 1, tree_depth(expected), DEEP):
        assert find_incompleteness_witness(pair, depth) == witness_by_enumeration(pair, depth)


def cg_text(pair) -> str:
    """The source text of ``pair``'s semantic component and both grammars, as one ``.cg`` file."""
    sc = pair.source.semantics
    lines = [f"semantics {sc.name}", f"  semcat {' '.join(sc.categories)}"]
    lines += [f"  meaning {m.name} : {m.category}" for m in sc.meanings]
    lines += [f"  mrule {r.name} : ( {' '.join(r.arg_list)} ) -> {r.result}" for r in sc.rules]
    for g in (pair.source, pair.target):
        lines += ["", f"grammar {g.name} uses {sc.name}", f"  syncat {' '.join(g.categories)}"]
        for b in g.basics:
            lines.append(f'  basic {b.name} : {b.category} = "{" ".join(b.surface)}" => {" ".join(b.meanings)}')
        for r in g.rules:
            template = " ".join(f'"{x}"' if isinstance(x, str) else f"${x}" for x in r.template)
            signature = f"( {' '.join(r.arg_list)} ) -> {r.result}"
            lines.append(f"  rule {r.name} : {signature} = {template} => {' '.join(r.meanings)}")
    return "\n".join(lines) + "\n"


def test_unbounded_search_finds_the_deep_chain_witness(tmp_path):
    # six rounds miss the depth-7 witness; with no bound the rounds run until
    # the states saturate, in the library and in the CLI
    pair = chain_pair(CHAIN_SEED)
    assert find_incompleteness_witness(pair, 6) is None
    assert format_tree(find_incompleteness_witness(pair)) == "F6b(F5a(F4a(F3a(F2a(F1a(m2))))))"
    (tmp_path / "chain.cg").write_text(cg_text(pair), encoding="utf-8")
    pair_file = tmp_path / "chain.cgp"
    pair_file.write_text("semantics chain.cg\nsource chain.cg src\ntarget chain.cg tgt\n", encoding="utf-8")
    assert run_cli("witness", pair_file) == (1, "F6b(F5a(F4a(F3a(F2a(F1a(m2))))))\n", "")
    assert run_cli("witness", pair_file, "--depth", "6") == (0, "none\n", "")
