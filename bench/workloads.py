"""Seeded workload generators for the comptrans benchmark.

Each generator returns the grammar texts the library will load, the
requests it will serve, and the expected result of every request. The
expected results come from the generator's own tables (which word means
what, which rules were left out), never from the library, so a wrong answer
from the library is caught rather than copied.

The seed draws surface words, the gender of each target word and the order
of requests. The shape of each workload (input sizes and how often each
occurs, lexicon sizes, which pair kinds appear) is fixed, so runs with
different seeds do the same amount of work and their timings can be pooled.
"""

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("ambiguity", "length", "polysemy", "checking")

CONDITIONS = ("homomorphism", "n1", "nn", "labels", "witness")


@dataclass(frozen=True)
class PairSpec:
    """One grammar pair as generated text, plus its category correspondence."""

    semantics: str
    source: str
    target: str
    # (semantic category, target categories, label), as a pair file declares
    correspond: tuple[tuple[str, tuple[str, ...], str], ...] = ()


@dataclass(frozen=True)
class TranslateCase:
    pair: int
    tokens: tuple[str, ...]
    translations: tuple[tuple[str, ...], ...]  # sorted
    source_trees: int
    # (semantic trees, target candidates, well-formed candidates) when the
    # request asks for the full trace, as ``translate --trace`` does
    trace_counts: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class CheckCase:
    pair: int
    kind: str  # complete | broken | gap
    genders: int
    verdicts: tuple[tuple[str, str], ...]  # (condition, "pass" | "fail")
    witness: dict | None  # tree JSON of the minimal witness


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: tuple[PairSpec, ...]
    cases: tuple  # TranslateCase or CheckCase, in request order
    depth: int = 0  # labels/witness depth bound (checking only)

    def texts(self) -> list[str]:
        return [t for p in self.pairs for t in (p.semantics, p.source, p.target)]


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``tiny`` shrinks every size for self-tests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}")
    return _BUILDERS[name](rng, tiny)


_SYLLABLES = (
    "ba", "ko", "mi", "ru", "te", "sa", "lo", "ne", "di", "pu",
    "fa", "gi", "ho", "ju", "ve", "zo", "ka", "ri", "mu", "se",
)


def _words(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct made-up surface words."""
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _balanced(rng: random.Random, sizes: dict[int, int]) -> list[int]:
    """Each size exactly as often as asked, in seeded order.

    Fixed multiplicities keep the work of one pass the same for every seed,
    and place the median and the 90th percentile inside one size's cluster
    of latencies instead of on the edge between two.
    """
    out = [n for n, count in sorted(sizes.items()) for _ in range(count)]
    rng.shuffle(out)
    return out


def _basic_lines(prefix: str, cat_of, surface: dict[str, str], meanings) -> list[str]:
    return [
        f'  basic {prefix}{m} : {cat_of(m)} = "{surface[m]}" => {m}' for m in meanings
    ]


def _catalan(n: int) -> int:
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


# -- ambiguity --------------------------------------------------------------
#
# Source S -> S S with template $1 $2, target the same rule with $2 $1. A
# sentence of n words has Catalan(n-1) parses, and every one of them
# translates to the same reversed word sequence.


def _ambiguity(rng: random.Random, tiny: bool) -> Workload:
    vocab = 2 if tiny else 40
    sizes = {2: 1, 3: 1} if tiny else {5: 2, 6: 2, 7: 2, 8: 2, 9: 2}
    meanings = [f"m{i:02d}" for i in range(vocab)]
    src_word = dict(zip(meanings, _words(rng, vocab)))
    tgt_word = dict(zip(meanings, _words(rng, vocab)))
    sem = "\n".join(
        ["semantics mirror-sem", "  semcat Sbar"]
        + [f"  meaning {m} : Sbar" for m in meanings]
        + ["  mrule C : ( Sbar Sbar ) -> Sbar"]
    )

    def grammar(name: str, words: dict[str, str], template: str) -> str:
        return "\n".join(
            [f"grammar {name} uses mirror-sem", "  syncat S"]
            + _basic_lines("w", lambda m: "S", words, meanings)
            + [f"  rule R : ( S S ) -> S = {template} => C"]
        )

    spec = PairSpec(sem, grammar("mirror-src", src_word, "$1 $2"), grammar("mirror-tgt", tgt_word, "$2 $1"))
    cases = []
    for n in _balanced(rng, sizes):
        ms = [rng.choice(meanings) for _ in range(n)]
        cases.append(
            TranslateCase(
                pair=0,
                tokens=tuple(src_word[m] for m in ms),
                translations=(tuple(tgt_word[m] for m in reversed(ms)),),
                source_trees=_catalan(n - 1),
            )
        )
    return Workload("ambiguity", (spec,), tuple(cases))


# -- length -----------------------------------------------------------------
#
# A right-recursive list L -> I L | I whose target reverses the sentence:
# one parse at any length, so only the chart's span and segmentation work
# grows. Inputs stop at 120 tokens: the ambiguity cap counts chart entries
# rather than derivation trees, and this grammar puts n(n+3)/2 entries in
# the chart, over the default cap of 10,000 from 140 tokens on.


def _length(rng: random.Random, tiny: bool) -> Workload:
    vocab = 4 if tiny else 40
    # short inputs outnumber long ones so that a 25 s run holds over 100
    # requests, enough for ten samples above the 90th percentile
    sizes = {2: 1, 4: 1, 6: 1} if tiny else {20: 4, 45: 4, 70: 3, 95: 2, 120: 2}
    meanings = [f"m{i:02d}" for i in range(vocab)]
    src_word = dict(zip(meanings, _words(rng, vocab)))
    tgt_word = dict(zip(meanings, _words(rng, vocab)))
    sem = "\n".join(
        ["semantics list-sem", "  semcat Ibar Lbar"]
        + [f"  meaning {m} : Ibar" for m in meanings]
        + ["  mrule P : ( Ibar Lbar ) -> Lbar", "  mrule Q : ( Ibar ) -> Lbar"]
    )

    def grammar(name: str, words: dict[str, str], template: str) -> str:
        return "\n".join(
            [f"grammar {name} uses list-sem", "  syncat I L"]
            + _basic_lines("w", lambda m: "I", words, meanings)
            + [f"  rule R1 : ( I L ) -> L = {template} => P", "  rule R0 : ( I ) -> L = $1 => Q"]
        )

    spec = PairSpec(sem, grammar("list-src", src_word, "$1 $2"), grammar("list-tgt", tgt_word, "$2 $1"))
    cases = []
    for n in _balanced(rng, sizes):
        ms = [rng.choice(meanings) for _ in range(n)]
        cases.append(
            TranslateCase(
                pair=0,
                tokens=tuple(src_word[m] for m in ms),
                translations=(tuple(tgt_word[m] for m in reversed(ms)),),
                source_trees=1,
            )
        )
    return Workload("length", (spec,), tuple(cases))


# -- polysemy ---------------------------------------------------------------
#
# A right-branching list where each source word has K meanings and the
# target realises each meaning as a word of one of two genders, with one
# rule per gender. An n-word input has K^n semantic trees; generation
# proposes 2^n candidates for each and the filter keeps exactly one.

POLYSEMY_K = 3


def _polysemy(rng: random.Random, tiny: bool) -> Workload:
    vocab = 3 if tiny else 30
    sizes = {2: 1, 3: 1} if tiny else {2: 1, 3: 1, 4: 2, 5: 1}
    k = POLYSEMY_K
    meanings = {i: [f"m{i:02d}k{j}" for j in range(k)] for i in range(vocab)}
    all_meanings = [m for ms in meanings.values() for m in ms]
    src_word = _words(rng, vocab)
    tgt_word = dict(zip(all_meanings, _words(rng, len(all_meanings))))
    gender = {m: rng.choice("mf") for m in all_meanings}
    sem = "\n".join(
        ["semantics poly-sem", "  semcat Wbar Sbar"]
        + [f"  meaning {m} : Wbar" for m in all_meanings]
        + ["  mrule P : ( Wbar Sbar ) -> Sbar", "  mrule Q : ( Wbar ) -> Sbar"]
    )
    src = "\n".join(
        ["grammar poly-src uses poly-sem", "  syncat W S"]
        + [f'  basic w{i:02d} : W = "{src_word[i]}" => {", ".join(meanings[i])}' for i in range(vocab)]
        + ["  rule R1 : ( W S ) -> S = $1 $2 => P", "  rule R0 : ( W ) -> S = $1 => Q"]
    )
    tgt = "\n".join(
        ["grammar poly-tgt uses poly-sem", "  syncat Wm Wf S"]
        + _basic_lines("v", lambda m: "W" + gender[m], tgt_word, all_meanings)
        + [
            f"  rule {rule}{g} : ( W{g} {'S ' if rule == 'P' else ''}) -> S = "
            f"{'$1 $2' if rule == 'P' else '$1'} => {rule}"
            for rule in ("P", "Q")
            for g in "mf"
        ]
    )
    cases = []
    for n in _balanced(rng, sizes):
        idx = [rng.randrange(vocab) for _ in range(n)]
        choices = [[tgt_word[m] for m in meanings[i]] for i in idx]
        cases.append(
            TranslateCase(
                pair=0,
                tokens=tuple(src_word[i] for i in idx),
                translations=tuple(sorted(itertools.product(*choices))),
                source_trees=1,
                trace_counts=(k**n, (2 * k) ** n, k**n),
            )
        )
    return Workload("polysemy", (PairSpec(sem, src, tgt),), tuple(cases))


# -- checking ---------------------------------------------------------------
#
# A family of gender-agreement pairs generalising fixtures/enfr-np.cgp:
# nouns carry one of g genders in the target, adjectives and the determiner
# are realised in every gender, and adjectives modify nouns recursively,
# (ADJ N) -> N. Three kinds of pair:
#   complete: every rule present; nn, labels and the witness search pass.
#   broken:   one gender's adjective rule is missing; nn and labels fail, and
#             the minimal witness is MA(first adjective, first noun of that
#             gender).
#   gap:      the last gender has no nouns in either grammar and no rules in
#             the target (the fixtures/enfr-np-masc.cgp shape); nn and labels
#             fail, yet no derivable tree lacks a translation.
# n1 fails on every pair, since each semantic category maps to g > 1 target
# categories, and the homomorphism check passes on every pair.

CHECK_DEPTH = 3


def _checking(rng: random.Random, tiny: bool) -> Workload:
    n_nouns, n_adjs = (6, 1) if tiny else (240, 2)
    plan = (
        [("complete", 2), ("broken", 2), ("gap", 2)]
        if tiny
        # complete g=2 twice, so that the median falls inside one pair kind's latencies
        else [("complete", 2), ("complete", 2), ("complete", 3), ("broken", 2), ("broken", 3), ("gap", 2), ("gap", 3)]
    )
    rng.shuffle(plan)
    nouns = [f"n{i:03d}" for i in range(n_nouns)]
    adjs = [f"j{i:02d}" for i in range(n_adjs)]
    src_word = dict(zip(["def"] + adjs + nouns, _words(rng, 1 + n_adjs + n_nouns)))
    sem = "\n".join(
        ["semantics agr-sem", "  semcat NPbar DETbar Abar Nbar", "  meaning def : DETbar"]
        + [f"  meaning {j} : Abar" for j in adjs]
        + [f"  meaning {n} : Nbar" for n in nouns]
        + ["  mrule MA : ( Abar Nbar ) -> Nbar", "  mrule MD : ( DETbar Nbar ) -> NPbar"]
    )
    pairs, cases = [], []
    for kind, g in plan:
        genders = range(g)
        # every gender gets nouns: deal a shuffled lexicon round-robin
        dealt = nouns[:]
        rng.shuffle(dealt)
        gender = {n: i % g for i, n in enumerate(dealt)}
        dropped = g - 1 if kind == "gap" else None
        broken = rng.randrange(g) if kind == "broken" else None
        kept = [n for n in nouns if gender[n] != dropped]
        src = "\n".join(
            ["grammar agr-src uses agr-sem", "  syncat NP DET A N", f'  basic the : DET = "{src_word["def"]}" => def']
            + _basic_lines("a", lambda m: "A", src_word, adjs)
            + _basic_lines("b", lambda m: "N", src_word, kept)
            + ["  rule MA : ( A N ) -> N = $1 $2 => MA", "  rule MD : ( DET N ) -> NP = $1 $2 => MD"]
        )
        tgt_word = _words(rng, g * (1 + n_adjs) + len(kept))
        tgt = [
            "grammar agr-tgt uses agr-sem",
            "  syncat NP " + " ".join(f"DET{x} A{x} N{x}" for x in genders),
        ]
        tgt += [f'  basic d{x} : DET{x} = "{tgt_word.pop()}" => def' for x in genders]
        tgt += [f'  basic a{j}g{x} : A{x} = "{tgt_word.pop()}" => {j}' for j in adjs for x in genders]
        tgt += [f'  basic b{n} : N{gender[n]} = "{tgt_word.pop()}" => {n}' for n in kept]
        for x in genders:
            if x != broken and x != dropped:
                tgt.append(f"  rule MA{x} : ( A{x} N{x} ) -> N{x} = $2 $1 => MA")
            if x != dropped:
                tgt.append(f"  rule MD{x} : ( DET{x} N{x} ) -> NP = $1 $2 => MD")
        correspond = (
            ("Abar", tuple(f"A{x}" for x in genders), "conjunctive"),
            ("DETbar", tuple(f"DET{x}" for x in genders), "conjunctive"),
            ("NPbar", ("NP",), "conjunctive"),
            ("Nbar", tuple(f"N{x}" for x in genders), "disjunctive"),
        )
        pairs.append(PairSpec(sem, src, "\n".join(tgt), correspond))

        witness = None
        if kind == "broken":
            first = min(n for n in nouns if gender[n] == broken)
            witness = {"rule": "MA", "children": [{"meaning": adjs[0]}, {"meaning": first}]}
        ok = "pass" if kind == "complete" else "fail"
        verdicts = (
            ("homomorphism", "pass"),
            ("n1", "fail"),
            ("nn", ok),
            ("labels", ok),
            ("witness", "fail" if kind == "broken" else "pass"),
        )
        cases.append(CheckCase(len(pairs) - 1, kind, g, verdicts, witness))
    return Workload("checking", tuple(pairs), tuple(cases), depth=CHECK_DEPTH)


_BUILDERS = {
    "ambiguity": _ambiguity,
    "length": _length,
    "polysemy": _polysemy,
    "checking": _checking,
}
