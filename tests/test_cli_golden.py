"""Golden CLI snapshot: every recorded run must reproduce its stdout and exit code.

The cases are the README's command list, ``translate --trace`` on every pair
fixture, and ``check`` / ``witness --depth 3`` on every pair fixture, each in
text and JSON. Arguments are paths relative to the repository root, so the
recording holds no machine-specific paths.

``tests/cli_golden.json`` is the recording. Regenerate it only when an output
change is intended, from the repository root:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

README_COMMANDS = [
    ["validate", "fixtures/np-sem.cg", "fixtures/en-np.cg", "fixtures/fr-np.cg"],
    ["parse", "fixtures/paper-example.cg", "--utterance", "e c b"],
    ["parse", "fixtures/en-np.cg", "--semantics", "fixtures/np-sem.cg", "--utterance", "the cat"],
    ["translate", "fixtures/enfr-np.cgp", "--utterance", "the house", "--trace"],
    ["check", "fixtures/enfr-np.cgp", "--condition", "nn"],
    ["check", "fixtures/enfr-np.cgp", "--condition", "labels", "--depth", "6"],
    ["witness", "fixtures/enfr-np-broken.cgp", "--depth", "3"],
    ["enumerate", "fixtures/paper-example.cg", "--cat", "A", "--depth", "2"],
    [
        "enumerate", "fixtures/np-sem.cg", "--kind", "sem", "--cat", "NPbar",
        "--depth", "2", "--sample", "5", "--seed", "7",
    ],
]

# utterances translated with --trace, per pair fixture
TRACE_UTTERANCES = {
    "enfr-np-broken.cgp": ["the cat", "the house"],
    "enfr-np-homviol.cgp": ["the cat", "the house"],
    "enfr-np-masc.cgp": ["the cat"],
    "enfr-np.cgp": ["the cat", "the house"],
    "identity.cgp": ["a b d", "e c b"],
}


def _declares_correspondence(pair_file: str) -> bool:
    text = (REPO / "fixtures" / pair_file).read_text(encoding="utf-8")
    return any(line.startswith("correspond") for line in text.splitlines())


def cases() -> list[list[str]]:
    argvs = [list(a) for a in README_COMMANDS]
    for pair_file, utterances in sorted(TRACE_UTTERANCES.items()):
        path = f"fixtures/{pair_file}"
        for u in utterances:
            argvs.append(["translate", path, "--utterance", u, "--trace"])
        conditions = ["homomorphism", "n1"]
        if _declares_correspondence(pair_file):
            conditions += ["nn", "labels"]
        argvs += [["check", path, "--condition", c] for c in conditions]
        argvs.append(["witness", path, "--depth", "3"])
    unique = list(dict.fromkeys(tuple(a) for a in argvs))  # the README repeats one trace case
    return [[*argv, "--format", fmt] for argv in unique for fmt in ("text", "json")]


def run(argv: list[str]) -> tuple[int, str]:
    from comptrans.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def record() -> list[dict]:
    return [{"argv": argv, "exit": code, "stdout": out} for argv in cases() for code, out in [run(argv)]]


@pytest.fixture(scope="module")
def golden():
    return {tuple(c["argv"]): c for c in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(tuple(a) for a in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_matches_golden(argv, golden, monkeypatch):
    monkeypatch.chdir(REPO)
    want = golden[tuple(argv)]
    assert run(argv) == (want["exit"], want["stdout"])


if __name__ == "__main__":
    import os

    os.chdir(REPO)
    GOLDEN.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(cases())} cases to {GOLDEN.relative_to(REPO)}", file=sys.stderr)
