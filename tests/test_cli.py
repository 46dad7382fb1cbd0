"""CLI behavior: commands, exit codes, JSON schema, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import comptrans
from comptrans.cli import main
from comptrans.render import schema
from conftest import FIXTURES

F = str(FIXTURES)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 0
    return code, out.getvalue(), err.getvalue()


def test_version():
    code, out, _ = run_cli("--version")
    assert code == 0
    assert out.startswith("comptrans 0.1.0")
    assert "report format 1" in out


def fixture_paths_for_validate():
    # np-sem.cg first: components accumulate left to right and the grammar
    # files resolve their interlingua from it
    rest = sorted(str(p) for p in FIXTURES.iterdir() if p.name != "np-sem.cg")
    return [str(FIXTURES / "np-sem.cg"), *rest]


def test_validate_all_fixtures():
    paths = fixture_paths_for_validate()
    code, out, _ = run_cli("validate", *paths)
    assert code == 0
    assert out.count(": OK") == len(paths)


def test_validate_reports_input_errors(tmp_path):
    bad = tmp_path / "bad.cg"
    bad.write_text("grammar g uses nothing\n")
    code, out, err = run_cli("validate", bad)
    assert code == 2
    assert "unknown semantic component" in err
    assert "bad.cg:1" in err


def test_file_that_is_not_utf8_is_an_input_error(tmp_path):
    bad = tmp_path / "bad.cg"
    bad.write_bytes(b"semantics s\xff\n")
    pair = tmp_path / "p.cgp"
    pair.write_text("semantics bad.cg\nsource bad.cg\ntarget bad.cg\n")
    for argv, path in ((("validate", bad), bad), (("check", pair), bad.resolve())):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:1:12: byte 0xff is not UTF-8\n"


def test_parse_text_and_json():
    code, out, _ = run_cli("parse", f"{F}/paper-example.cg", "--utterance", "e c b")
    assert code == 0
    assert out == "R3(b, c)\n"

    code, out, _ = run_cli(
        "parse", f"{F}/paper-example.cg", "--utterance", "e c b", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trees"] == [
        {"rule": "R3", "children": [{"basic": "b"}, {"basic": "c"}]}
    ]


def test_parse_with_separate_semantics_file():
    code, out, _ = run_cli(
        "parse",
        f"{F}/en-np.cg",
        "--semantics",
        f"{F}/np-sem.cg",
        "--utterance",
        "the cat",
    )
    assert code == 0
    assert out == "R1(the, cat)\n"


def test_parse_category_filter():
    code, out, _ = run_cli(
        "parse", f"{F}/paper-example.cg", "--utterance", "b", "--cat", "A"
    )
    assert code == 0
    assert out == ""


def test_translate_identity():
    code, out, _ = run_cli("translate", f"{F}/identity.cgp", "--utterance", "a b d")
    assert code == 0
    assert out == "a b d\n"


def test_translate_with_trace():
    code, out, _ = run_cli(
        "translate", f"{F}/enfr-np.cgp", "--utterance", "the cat", "--trace"
    )
    assert code == 0
    assert "R1(the, cat)" in out
    assert "M1(def, cat) [well-typed]" in out
    assert "R1a(le, chat) [well-formed]" in out
    assert out.rstrip().endswith("le chat")


def test_check_exit_codes():
    assert run_cli("check", f"{F}/enfr-np.cgp", "--condition", "nn")[0] == 0
    assert run_cli("check", f"{F}/enfr-np.cgp", "--condition", "n1")[0] == 1
    assert run_cli("check", f"{F}/enfr-np.cgp", "--condition", "homomorphism")[0] == 0
    assert run_cli("check", f"{F}/enfr-np.cgp", "--condition", "labels", "--depth", "4")[0] == 0
    assert run_cli("check", f"{F}/enfr-np-broken.cgp", "--condition", "nn")[0] == 1
    # default condition: nn when correspondences are declared, else n1
    assert run_cli("check", f"{F}/enfr-np.cgp")[0] == 0
    assert run_cli("check", f"{F}/enfr-np-homviol.cgp")[0] == 1


def test_check_needs_correspondence_for_nn():
    code, _, err = run_cli("check", f"{F}/enfr-np-homviol.cgp", "--condition", "nn")
    assert code == 2
    assert "correspond" in err


def test_witness_found_and_not_found():
    code, out, _ = run_cli("witness", f"{F}/enfr-np-broken.cgp", "--depth", "3")
    assert code == 1
    assert out == "M1(def, house)\n"
    code, out, _ = run_cli("witness", f"{F}/identity.cgp", "--depth", "4")
    assert code == 0
    assert out == "none\n"


def test_ill_typed_source_meaning_is_no_witness():
    # the source derives R(b), whose meaning F1(m2) is ill-typed; only that
    # tree would need the target's missing U, so n1 passes and nothing is lost
    pair = f"{F}/ill-typed.cgp"
    assert run_cli("check", pair, "--condition", "n1") == (0, "check n1 for src -> tgt: PASS\n", "")
    assert run_cli("witness", pair) == (0, "none\n", "")
    code, out, err = run_cli("translate", pair, "--utterance", "y x", "--trace")
    assert (code, err) == (0, "")
    assert "  F1(m2) [ill-typed]\n" in out
    assert out.endswith("translations (0):\n")


def test_enumerate_text():
    code, out, _ = run_cli(
        "enumerate", f"{F}/paper-example.cg", "--cat", "A", "--depth", "2"
    )
    assert code == 0
    assert out == "R1(b, c)\nR2(b)\nR3(b, c)\n"


def test_enumerate_sample_deterministic():
    args = (
        "enumerate",
        f"{F}/np-sem.cg",
        "--kind",
        "sem",
        "--cat",
        "NPbar",
        "--depth",
        "2",
        "--sample",
        "4",
        "--seed",
        "11",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    assert first[0] == 0
    assert len(first[1].splitlines()) == 4


def test_cap_flag():
    argv = ("parse", f"{F}/en-np.cg", "--semantics", f"{F}/np-sem.cg", "--utterance", "the cat", "--cap")
    code, _, err = run_cli(*argv, "1")
    assert code == 3
    assert "ambiguity cap" in err
    assert run_cli(*argv, "50") == (0, "R1(the, cat)\n", "")


def test_usage_error_exit_code():
    assert run_cli("parse", f"{F}/paper-example.cg")[0] == 2  # missing --utterance
    assert run_cli("frobnicate")[0] == 2
    assert run_cli("witness", f"{F}/identity.cgp", "--depth", "0")[0] == 2


def test_enumerate_misuse():
    code, _, err = run_cli(
        "enumerate", f"{F}/paper-example.cg", "--cat", "A", "--sample", "2"
    )
    assert code == 2 and "--kind sem" in err
    code, _, err = run_cli("enumerate", f"{F}/paper-example.cg", "--cat", "Zed")
    assert code == 2 and "no category 'Zed'" in err


def test_grammar_selection_in_multi_grammar_file(tmp_path):
    for name in ("np-sem.cg", "en-np.cg", "fr-np.cg"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    combined = tmp_path / "both.cg"
    combined.write_text(
        (FIXTURES / "np-sem.cg").read_text()
        + (FIXTURES / "en-np.cg").read_text()
        + (FIXTURES / "fr-np.cg").read_text()
    )
    code, _, err = run_cli("parse", combined, "--utterance", "the cat")
    assert code == 2 and "--grammar" in err
    code, out, _ = run_cli("parse", combined, "--grammar", "en-np", "--utterance", "the cat")
    assert code == 0 and out == "R1(the, cat)\n"
    code, out, _ = run_cli("parse", combined, "--grammar", "fr-np", "--utterance", "le chat")
    assert code == 0 and out == "R1a(le, chat)\n"


def test_a_file_that_declares_nothing_to_pick_offers_no_choice(tmp_path):
    code, out, err = run_cli("enumerate", f"{F}/np-sem.cg", "--cat", "NPbar")
    assert (code, out) == (2, "")
    assert err == f"error: file '{F}/np-sem.cg' declares no grammar\n"

    for name in ("en-np.cg", "fr-np.cg"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    (tmp_path / "empty.cg").write_text("# declares nothing\n")
    pair = tmp_path / "p.cgp"
    pair.write_text("semantics empty.cg\nsource en-np.cg\ntarget fr-np.cg\n")
    code, out, err = run_cli("validate", pair)
    assert (code, out) == (2, "")
    assert err == f"error: {pair}:1:19: file 'empty.cg' declares no semantic component\n"


JSON_COMMANDS = [
    ("validate", f"{F}/paper-example.cg"),
    ("parse", f"{F}/paper-example.cg", "--utterance", "e c b"),
    ("parse", f"{F}/paper-example.cg", "--utterance", "z"),
    ("translate", f"{F}/identity.cgp", "--utterance", "a b d"),
    ("translate", f"{F}/enfr-np.cgp", "--utterance", "the house", "--trace"),
    ("check", f"{F}/enfr-np.cgp", "--condition", "nn"),
    ("check", f"{F}/enfr-np.cgp", "--condition", "n1"),
    ("check", f"{F}/enfr-np.cgp", "--condition", "labels"),
    ("check", f"{F}/enfr-np-broken.cgp", "--condition", "nn"),
    ("check", f"{F}/enfr-np-homviol.cgp", "--condition", "homomorphism"),
    ("check", f"{F}/enfr-np-masc.cgp"),
    ("witness", f"{F}/enfr-np-broken.cgp", "--depth", "3"),
    ("witness", f"{F}/identity.cgp", "--depth", "4"),
    ("enumerate", f"{F}/paper-example.cg", "--cat", "A", "--depth", "2"),
    (
        "enumerate",
        f"{F}/np-sem.cg",
        "--kind",
        "sem",
        "--cat",
        "NPbar",
        "--depth",
        "2",
        "--sample",
        "3",
        "--seed",
        "5",
    ),
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_json_output_validates_against_shipped_schema(argv):
    code, out, _ = run_cli(*argv, "--format", "json")
    assert code in (0, 1)
    doc = json.loads(out)
    jsonschema.validate(doc, schema())


def test_witness_json_without_depth_has_null_depth():
    # with no bound the rounds run until the states saturate
    code, out, _ = run_cli("witness", f"{F}/enfr-np-broken.cgp", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema())
    assert doc["depth"] is None


def test_byte_identical_output_across_runs():
    for argv in JSON_COMMANDS:
        for fmt in ("text", "json"):
            first = run_cli(*argv, "--format", fmt)
            second = run_cli(*argv, "--format", fmt)
            assert first == second, argv


LIST_GRAMMAR = """
semantics list-sem
  semcat Ibar Lbar
  meaning a : Ibar
  mrule P : ( Ibar Lbar ) -> Lbar
  mrule Q : ( Ibar ) -> Lbar

grammar list uses list-sem
  syncat I L
  basic a : I = "a" => a
  rule R1 : ( I L ) -> L = $1 $2 => P
  rule R0 : ( I ) -> L = $1 "." => Q
"""


def test_tree_deeper_than_recursion_limit_is_a_resource_error(tmp_path):
    # one right-recursive parse, 250 levels deep, under a lowered limit; each
    # tree level takes one frame, so under the default limit 3.10 to 3.13 all
    # translate 988 tokens (3.12 and 3.13 reach 992) and fail just beyond
    (tmp_path / "list.cg").write_text(LIST_GRAMMAR)
    pair = tmp_path / "list.cgp"
    pair.write_text("semantics list.cg\nsource list.cg\ntarget list.cg\n")
    utterance = " ".join(["a"] * 249 + ["."])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        code, out, err = run_cli("translate", pair, "--utterance", utterance, "--cap", "1000000")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "recursion limit" in err


@pytest.mark.parametrize("mode", [(), ("--trace",), ("--trace", "--format", "json")])
def test_each_tree_level_takes_one_frame(tmp_path, mode):
    # every walk calls itself once per child, so n levels need n frames and a few more
    (tmp_path / "list.cg").write_text(LIST_GRAMMAR)
    pair = tmp_path / "list.cgp"
    pair.write_text("semantics list.cg\nsource list.cg\ntarget list.cg\n")
    n = 300
    utterance = " ".join(["a"] * (n - 1) + ["."])
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + n + 50)
    try:
        code, out, err = run_cli("translate", pair, "--utterance", utterance, "--cap", "1000000", *mode)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    assert utterance in out or json.loads(out)["translations"] == [utterance.split()]


@pytest.mark.parametrize(
    "condition", [(), ("--condition", "nn"), ("--condition", "n1"), ("--condition", "homomorphism")]
)
def test_depth_outside_labels_is_a_usage_error(condition):
    code, out, err = run_cli("check", f"{F}/enfr-np.cgp", *condition, "--depth", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--condition labels" in err


def test_closed_stdout_keeps_the_exit_code_and_stderr_quiet():
    # the reader is gone before the command writes, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(comptrans.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "comptrans.cli", "witness", f"{F}/enfr-np-broken.cgp", "--format", "json"]
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1
