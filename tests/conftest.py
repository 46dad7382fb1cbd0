from pathlib import Path

import pytest

from comptrans import (
    BasicExpression,
    BasicMeaning,
    CompositionalGrammar,
    SemanticComponent,
    SemRule,
    SyntacticRule,
    load_grammar_file,
    load_pair,
    validate_grammar,
    validate_pair,
    validate_semantics,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# acceptance criterion results, printed after the terminal summary
ACCEPTANCE_RESULTS: list[tuple[int, str, str, float]] = []


def fixture_path(name: str) -> Path:
    return FIXTURES / name


@pytest.fixture(scope="session")
def paper_grammar():
    return load_grammar_file(FIXTURES / "paper-example.cg")


@pytest.fixture(scope="session")
def identity():
    return load_pair(FIXTURES / "identity.cgp")


@pytest.fixture(scope="session")
def enfr():
    return load_pair(FIXTURES / "enfr-np.cgp")


@pytest.fixture(scope="session")
def enfr_broken():
    return load_pair(FIXTURES / "enfr-np-broken.cgp")


@pytest.fixture(scope="session")
def enfr_masc():
    return load_pair(FIXTURES / "enfr-np-masc.cgp")


@pytest.fixture(scope="session")
def enfr_homviol():
    return load_pair(FIXTURES / "enfr-np-homviol.cgp")


MIRROR_WORDS = "abcdefghi"


@pytest.fixture(scope="session")
def mirror():
    """``S -> S S`` read as ``$1 $2`` and written as ``$2 $1``: n words have Catalan(n-1) parses."""
    sc = validate_semantics(
        SemanticComponent(
            "mirror-sem",
            ("Sbar",),
            tuple(BasicMeaning(f"m{w}", "Sbar") for w in MIRROR_WORDS),
            (SemRule("C", ("Sbar", "Sbar"), "Sbar"),),
        )
    )

    def grammar(name, template):
        basics = tuple(BasicExpression(f"{name}{w}", "S", (f"{name}{w}",), (f"m{w}",)) for w in MIRROR_WORDS)
        rules = (SyntacticRule("R", ("S", "S"), "S", template, ("C",)),)
        return validate_grammar(CompositionalGrammar(name, ("S",), basics, rules, sc))

    return validate_pair(grammar("x", (1, 2)), grammar("y", (2, 1)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, outcome, elapsed in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {number} ({name}): {outcome} [{elapsed:.2f}s]")
