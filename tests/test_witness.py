"""The incompleteness witness, decided over states, against the enumeration search.

``find_incompleteness_witness`` runs a bottom-up fixpoint over the states
(source categories, target categories) of semantic trees. The reference is
the search it replaced (``oracles.witness_by_enumeration``): every
source-derivable semantic tree up to the depth bound, smallest depth first
and then in canonical order, translated one by one.
"""

import math
import random
import time

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from comptrans import SemLeaf, SemNode, find_incompleteness_witness, tree_depth, validate_pair
from oracles import witness_by_enumeration
from test_cli import run_cli
from test_random_grammars import MAX_SEM_TREES, random_component, random_grammar

DEEP = 60


def draw_pair(seed: int):
    rng = random.Random(seed)
    sc = random_component(rng)
    return validate_pair(random_grammar(rng, "src", sc), random_grammar(rng, "tgt", sc))


def analyses_up_to(g, depth: int) -> int:
    """How many (syntactic tree, interpretation) pairs of depth <= ``depth`` ``g`` has.

    That is how many semantic trees the enumeration search builds before
    deduplicating, counted without building them.
    """
    leaves = {c: sum(len(b.meanings) for b in g.basics if b.category == c) for c in g.categories}
    count = dict(leaves)
    for _ in range(depth - 1):
        count = {
            c: leaves[c]
            + sum(len(r.meanings) * math.prod(count[a] for a in r.arg_list) for r in g.rules if r.result == c)
            for c in g.categories
        }
    return sum(count.values())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), depth=st.integers(min_value=1, max_value=4))
def test_fixpoint_matches_enumeration(seed, depth):
    pair = draw_pair(seed)
    assume(analyses_up_to(pair.source, depth) <= MAX_SEM_TREES)
    expected = witness_by_enumeration(pair, depth)
    assert find_incompleteness_witness(pair, depth) == expected
    # a deeper bound only adds candidates after every shallower one
    deep = find_incompleteness_witness(pair, DEEP)
    if expected is not None:
        assert deep == expected
    else:
        assert deep is None or tree_depth(deep) > depth


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
    # t(d) = 1 + t(d-1)^2 candidate trees: 458,330 at the default depth 6
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
