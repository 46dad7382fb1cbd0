"""Self-tests of the benchmark: determinism, tiny runs, references against the oracles.

Run from the root of a source checkout:

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402


def tiny_run(name: str, seed: int, trace: int):
    args = Namespace(workload=name, seed=seed, seconds=0.05, trace=trace)
    return run.run(args, workloads.build(name, seed, tiny=True))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_texts_and_inputs(name):
    a, b = workloads.build(name, 5), workloads.build(name, 5)
    assert [t.encode() for t in a.texts()] == [t.encode() for t in b.texts()]
    assert a.cases == b.cases
    assert workloads.build(name, 6).texts() != a.texts()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_has_no_failures(name):
    result, record, _ = tiny_run(name, 3, trace=0)
    assert result["correct"]
    assert result["failed"] == 0 and record["failed_ratio"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_between_runs(name):
    first = tiny_run(name, 4, trace=1)[1]
    second = tiny_run(name, 4, trace=1)[1]
    assert first["counters_not_repeating"] == []
    assert first["counts_per_pass"] == second["counts_per_pass"]
    assert set(first["result"]["metrics"]) == set(run.PER_LAYER)


def test_wrong_output_is_a_failed_request():
    wl = workloads.build("polysemy", 1, tiny=True)
    case = wl.cases[0]
    bad = workloads.TranslateCase(case.pair, case.tokens, case.translations[1:], case.source_trees, case.trace_counts)
    wl = workloads.Workload(wl.name, wl.pairs, (bad,) + wl.cases[1:])
    result, record, _ = run.run(Namespace(workload="polysemy", seed=1, seconds=0.0, trace=0), wl)
    assert not result["correct"]
    assert record["failures_by_type"] == {"WrongOutput": 2}  # warm-up pass and timed pass


# -- references against tests/oracles.py -----------------------------------
#
# The generators derive every expected output from their own tables. Here
# the smallest instance of each workload is solved again by the brute-force
# oracles of the test suite, which build every tree up to a depth bound.


def load(spec):
    import comptrans as ct

    sc = ct.parse_file(spec.semantics).semantics[0]
    env = {sc.name: sc}
    return ct.validate_pair(ct.load_grammar(spec.source, env=env), ct.load_grammar(spec.target, env=env))


# deepest derivation of an n-token input: a caterpillar of binary rules for
# the mirror grammar, a chain of n list rules plus the leaf otherwise
DEPTH = {"ambiguity": lambda n: n, "length": lambda n: n + 1, "polysemy": lambda n: n + 1}


@pytest.mark.parametrize("name", ["ambiguity", "length", "polysemy"])
def test_translation_references_match_oracles(name):
    from comptrans import seman
    from oracles import all_trees_to_depth, naive_yield, parse_oracle

    wl = workloads.build(name, 2, tiny=True)
    pair = load(wl.pairs[0])
    for case in wl.cases:
        depth = DEPTH[name](len(case.tokens))
        parses = parse_oracle(pair.source, case.tokens, depth)
        assert len(parses) == case.source_trees
        meanings = {d for t in parses for d in seman(pair.source, t)}
        realizations = [
            t for t in all_trees_to_depth(pair.target, depth) if meanings & set(seman(pair.target, t))
        ]
        assert tuple(sorted({tuple(naive_yield(pair.target, t)) for t in realizations})) == case.translations
        if case.trace_counts:
            sem_trees, _, well_formed = case.trace_counts
            assert (len(meanings), len(realizations)) == (sem_trees, well_formed)


def canonical(d):
    """Canonical order of the library's documentation: node name, then children."""
    return (getattr(d, "meaning", None) or d.rule, tuple(canonical(c) for c in getattr(d, "children", ())))


def depth_of(d):
    return 1 + max((depth_of(c) for c in getattr(d, "children", ())), default=0)


def as_json(d):
    if hasattr(d, "meaning"):
        return {"meaning": d.meaning}
    return {"rule": d.rule, "children": [as_json(c) for c in d.children]}


def test_checking_references_match_oracles():
    from comptrans import seman
    from oracles import naive_sem_trees, naive_syn_trees

    wl = workloads.build("checking", 2, tiny=True)
    for case in wl.cases:
        spec = wl.pairs[case.pair]
        pair = load(spec)

        def realized(grammar, cat):
            return {d for t in naive_syn_trees(grammar, cat, wl.depth) for d in seman(grammar, t)}

        derivable = set().union(*(realized(pair.source, c) for c in pair.source.categories))
        translatable = set().union(*(realized(pair.target, c) for c in pair.target.categories))
        missing = sorted(derivable - translatable, key=lambda d: (depth_of(d), canonical(d)))
        assert (as_json(missing[0]) if missing else None) == case.witness

        component = pair.source.semantics
        labels_hold = all(
            d in realized(pair.target, wanted)
            for cat, wanted_cats, label in spec.correspond
            if label == "conjunctive"
            for d in naive_sem_trees(component, cat, wl.depth)
            for wanted in wanted_cats
        )
        assert dict(case.verdicts)["labels"] == ("pass" if labels_hold else "fail")
        assert dict(case.verdicts)["witness"] == ("fail" if missing else "pass")
