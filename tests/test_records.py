"""Records are tuples, like trees: the contract every public record keeps."""

import os
import subprocess
import sys
import types
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


# the package's public names, each listed once, in its module's __all__
PUBLIC_NAMES = [
    "AmbiguityCapError", "BasicExpression", "BasicMeaning", "CONJUNCTIVE", "CategoryCorrespondence",
    "CompletenessReport", "CompositionalGrammar", "ComptransError", "CorrespondenceEntry",
    "CorrespondenceError", "DEFAULT_AMBIGUITY_CAP", "DISJUNCTIVE", "FileContents", "GrammarFormatError",
    "GrammarPair", "GrammarValidationError", "IllFormedTreeError", "LoadedPair", "ResourceLimitError",
    "SemLeaf", "SemNode", "SemRule", "SemTree", "SemanticComponent", "SemanticsMismatchError", "SynLeaf",
    "SynNode", "SynTree", "SyntacticRule", "TranslationTrace", "TupleCapError", "UnknownNameError",
    "Violation", "check_homomorphism", "check_n1_completeness", "check_nn_completeness",
    "enumerate_sem_trees", "enumerate_syn_trees", "find_incompleteness_witness", "format_tree",
    "infer_n1_map", "is_cfg_well_formed", "is_sem_well_typed", "is_well_formed_sem_tree", "load_grammar",
    "load_grammar_file", "load_pair", "morsynan", "morsyngen", "n1_correspondence", "parse_file",
    "parse_sem_tree", "parse_syn_tree", "random_sem_tree", "sem_cat", "sem_tree_from_json", "seman",
    "semgen", "syn_cat", "syn_tree_from_json", "translate", "translate_sem", "tree_depth", "tree_key",
    "tree_to_json", "validate_grammar", "validate_labels", "validate_pair", "validate_semantics",
    "well_formed_sem_trees", "witness_report",
]


def test_the_package_publishes_each_module_all_and_nothing_else():
    assert sorted(comptrans.__all__) == PUBLIC_NAMES
    public = {n for n, x in vars(comptrans).items() if not n.startswith("_") and not isinstance(x, types.ModuleType)}
    assert public == set(comptrans.__all__)
    modules = ("completeness", "errors", "loader", "model", "parsing", "pipeline", "trees")
    listed = [name for m in modules for name in getattr(comptrans, m).__all__]
    assert sorted(listed) == PUBLIC_NAMES  # so no name is in two modules' __all__


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

    # a one-tuple, already in order, is kept as it is by records that sort a field
    changed = record._replace(**{fields[-1]: ("changed",)})
    assert type(changed) is type(record)
    assert changed == (*values[:-1], ("changed",))
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
