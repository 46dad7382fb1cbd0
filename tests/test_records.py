"""Records are tuples, like trees: the contract every public record keeps."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import comptrans
from comptrans import (
    CompletenessReport,
    SemLeaf,
    SemNode,
    SynLeaf,
    SynNode,
    Violation,
    load_pair,
    parse_file,
    translate,
)
from conftest import FIXTURES


def _examples() -> list[tuple]:
    loaded = load_pair(FIXTURES / "enfr-np.cgp")
    g = loaded.pair.source
    violation = Violation("label", "message", category="NP")
    return [
        g.semantics.meanings[0],
        g.semantics.rules[0],
        g.basics[0],
        g.rules[0],
        g.semantics,
        g,
        loaded.pair,
        loaded.correspondence.entries[0][1],
        loaded.correspondence,
        violation,
        CompletenessReport("labels", (violation,)),
        parse_file((FIXTURES / "np-sem.cg").read_text(encoding="utf-8")),
        loaded,
        translate(loaded.pair, ["the", "cat"]),
        SynLeaf("the"),
        SynNode("R1", (SynLeaf("the"), SynLeaf("cat"))),
        SemLeaf("def"),
        SemNode("M1", (SemLeaf("def"), SemLeaf("cat"))),
    ]


RECORDS = _examples()


def test_every_public_record_is_covered():
    public = {x for x in map(comptrans.__dict__.get, comptrans.__all__) if isinstance(x, type) and issubclass(x, tuple)}
    assert public == {type(r) for r in RECORDS}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_tuples(record):
    fields = type(record)._fields
    values = tuple(getattr(record, f) for f in fields)
    assert record == values
    first, *rest = record
    assert (first, *rest) == values

    changed = record._replace(**{fields[-1]: "changed"})
    assert type(changed) is type(record)
    assert changed == (*values[:-1], "changed")
    assert record == values

    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])


def test_signature_replace_keeps_name_order(paper_grammar):
    sig = paper_grammar.signature
    shuffled = sig._replace(leaves=sig.leaves[::-1], ops=sig.ops[::-1])
    assert shuffled == sig


def test_importing_the_cli_leaves_dataclasses_unloaded():
    src = str(Path(comptrans.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, comptrans.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
