"""Grammar file loading: format diagnostics and model invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptrans import (
    GrammarFormatError,
    GrammarValidationError,
    SemanticsMismatchError,
    load_grammar,
    load_grammar_file,
    load_pair,
    parse_file,
    validate_grammar,
    validate_pair,
)
from conftest import FIXTURES

MINI_SEM = """
semantics s
  semcat X Y
  meaning x : X
  mrule F : ( X ) -> Y
"""


def mini_grammar(body: str) -> str:
    return MINI_SEM + "grammar g uses s\n" + body


def test_paper_example_contents(paper_grammar):
    g = paper_grammar
    assert g.name == "paper-example"
    assert set(g.categories) == {"A", "B", "C"}

    rules = {r.name: r for r in g.rules}
    assert set(rules) == {"R1", "R2", "R3"}
    assert (rules["R1"].arg_list, rules["R1"].result) == (("B", "C"), "A")
    assert (rules["R2"].arg_list, rules["R2"].result) == (("B",), "A")
    assert (rules["R3"].arg_list, rules["R3"].result) == (("B", "C"), "A")
    assert rules["R1"].meanings == ("M1",)
    assert rules["R2"].meanings == ("M2a", "M2b")
    assert rules["R3"].meanings == ("M3a", "M3b")
    # templates: R1 = B C, R2 = a B d, R3 = e C B
    assert rules["R1"].template == (1, 2)
    assert rules["R2"].template == ("a", 1, "d")
    assert rules["R3"].template == ("e", 2, 1)

    basics = {b.name: b for b in g.basics}
    assert set(basics) == {"b", "c"}
    assert (basics["b"].category, basics["b"].surface, basics["b"].meanings) == ("B", ("b",), ("m1",))
    assert (basics["c"].category, basics["c"].surface, basics["c"].meanings) == (
        "C",
        ("c",),
        ("m2a", "m2b"),
    )


def test_loading_is_deterministic():
    text = (FIXTURES / "paper-example.cg").read_text(encoding="utf-8")
    assert load_grammar(text) == load_grammar(text)


def test_arity_matches_every_associated_semantic_rule(paper_grammar, enfr):
    for g in (paper_grammar, enfr.pair.source, enfr.pair.target):
        for r in g.rules:
            for m in r.meanings:
                assert g.semantics.signature.op_by_name[m].arity == r.arity


def test_multi_token_surface_allowed():
    g = load_grammar(mini_grammar('  syncat V\n  basic kick : V = "kicked" "the" "bucket" => x\n'))
    assert g.signature.leaf_by_name["kick"].surface == ("kicked", "the", "bucket")


def test_comments_and_blank_lines_ignored():
    g = load_grammar(mini_grammar('  syncat V # trailing comment\n\n  # a comment line\n  basic v : V = "v" => x\n'))
    assert set(g.categories) == {"V"}


@pytest.mark.parametrize(
    "body, fragment",
    [
        ('  syncat V W\n  basic v : V = "v" => x\n  rule R : ( V ) -> W = $1 $1 => F\n', "placeholder $1 appears 2 times"),
        ('  syncat V W\n  basic v : V = "v" => x\n  rule R : ( V ) -> W = "r" => F\n', "placeholder $1 missing"),
        ('  syncat V W\n  basic v : V = "v" => x\n  rule R : ( V ) -> W = $1 $2 => F\n', "placeholder $2 out of range"),
        ('  syncat V\n  basic v : Q = "v" => x\n', "undeclared category 'Q'"),
        ('  syncat V\n  basic v : V = "v" => nothere\n', "unknown basic meaning 'nothere'"),
        ('  syncat V W\n  basic v : V = "v" => x\n  rule R : ( V ) -> W = $1 => G\n', "unknown semantic rule 'G'"),
        ('  syncat V\n  basic v : V = "v" => x\n  basic v : V = "v" => x\n', "duplicate name 'v'"),
        ('  syncat V V\n', "duplicate syntactic category 'V'"),
    ],
)
def test_validation_errors(body, fragment):
    with pytest.raises(GrammarValidationError) as err:
        load_grammar(mini_grammar(body))
    assert fragment in str(err.value)


def test_signature_lists_symbols_in_name_order():
    contents = parse_file(
        """
semantics s
  semcat Y X
  meaning z : X
  meaning m : Y
  meaning a : X
  mrule G : ( X ) -> Y
  mrule F : ( Y ) -> X
  mrule E : ( X ) -> Y
grammar g uses s
  syncat W V
  basic w : V = "w" => z
  basic v : V = "v" => a
  rule R : ( V ) -> W = "r" $1 => G
  rule Q : ( V ) -> W = "q" $1 => E
"""
    )
    sem, syn = contents.semantics[0].signature, contents.grammars[0].signature

    def names(symbols):
        return [x.name for x in symbols]

    assert names(sem.leaves) == ["a", "m", "z"]
    assert names(sem.ops) == ["E", "F", "G"]
    assert {s: names(xs) for s, xs in sem.leaves_by_sort.items()} == {"X": ["a", "z"], "Y": ["m"]}
    assert {s: names(xs) for s, xs in sem.ops_by_result.items()} == {"X": ["F"], "Y": ["E", "G"]}
    assert names(syn.leaves) == ["v", "w"]
    assert names(syn.ops) == ["Q", "R"]
    assert {s: names(xs) for s, xs in syn.leaves_by_sort.items()} == {"V": ["v", "w"], "W": []}
    assert {s: names(xs) for s, xs in syn.ops_by_result.items()} == {"V": [], "W": ["Q", "R"]}
    # the components keep their declaration order
    assert names(contents.semantics[0].meanings) == ["z", "m", "a"]
    assert names(contents.grammars[0].rules) == ["R", "Q"]


def test_file_that_is_not_utf8_fails_at_its_first_bad_byte(tmp_path):
    bad = tmp_path / "bad.cg"
    bad.write_bytes(b"semantics s\r\n  semcat X \xc3\xa9\xff\xfe\n")
    with pytest.raises(GrammarFormatError) as err:
        load_grammar_file(bad)
    # the column counts characters, so the two-byte 'é' is one
    assert str(err.value) == f"{bad}:2:13: byte 0xff is not UTF-8"
    pair = tmp_path / "p.cgp"
    pair.write_text("semantics bad.cg\nsource bad.cg\ntarget bad.cg\n")
    with pytest.raises(GrammarFormatError) as err:
        load_pair(pair)
    assert str(err.value) == f"{bad.resolve()}:2:13: byte 0xff is not UTF-8"
    pair.write_bytes(b"semantics bad.cg\n\x80\n")
    with pytest.raises(GrammarFormatError) as err:
        load_pair(pair)
    assert str(err.value) == f"{pair}:2:1: byte 0x80 is not UTF-8"


def test_arity_mismatch_with_semantic_rule():
    body = '  syncat V W\n  basic v : V = "v" => x\n  rule R : ( V V ) -> W = $1 $2 => F\n'
    with pytest.raises(GrammarValidationError) as err:
        load_grammar(mini_grammar(body))
    assert "arity 2" in str(err.value) and "'F' has arity 1" in str(err.value)


def test_unary_terminal_free_cycle_rejected():
    text = """
semantics s
  semcat X
  meaning x : X
  mrule F : ( X ) -> X
grammar g uses s
  syncat P Q
  basic p : P = "p" => x
  rule Up : ( P ) -> Q = $1 => F
  rule Down : ( Q ) -> P = $1 => F
"""
    with pytest.raises(GrammarValidationError) as err:
        load_grammar(text)
    assert "unary terminal-free rule cycle" in str(err.value)


def test_acyclic_unary_rules_allowed():
    text = """
semantics s
  semcat X
  meaning x : X
  mrule F : ( X ) -> X
grammar g uses s
  syncat P Q R
  basic p : P = "p" => x
  rule Up1 : ( P ) -> Q = $1 => F
  rule Up2 : ( Q ) -> R = $1 => F
"""
    assert len(load_grammar(text).rules) == 2


# MINI_SEM spans lines 1-5 (leading blank line), "grammar g uses s" is line 6,
# the probed line is line 7
@pytest.mark.parametrize(
    "line, fragment",
    [
        ('basic v : V = "v => x', "unterminated quoted token"),
        ("nonsense v w", "unknown directive 'nonsense'"),
        ('basic v : V = "v" => ', "expected basic meaning name"),
        ("basic v : V = v => x", "surface tokens must be quoted"),
        ('rule R : ( V ) -> V = $0 => F', "placeholder indices start at $1"),
        ('rule R : ( V ) -> V = $x => F', "quoted terminals or $<i> placeholders"),
        ('meaning q : X', "only allowed inside a 'semantics' block"),
    ],
)
def test_syntax_errors_carry_line_numbers(line, fragment):
    text = MINI_SEM + "grammar g uses s\n" + line + "\n"
    with pytest.raises(GrammarFormatError) as err:
        parse_file(text, path="inline.cg")
    assert err.value.line == 7
    assert fragment in str(err.value)
    assert "inline.cg:7" in str(err.value)


def test_unknown_semantics_reference():
    with pytest.raises(GrammarFormatError) as err:
        parse_file("grammar g uses missing\n")
    assert "unknown semantic component 'missing'" in str(err.value)


def test_load_grammar_requires_exactly_one_grammar():
    with pytest.raises(GrammarFormatError):
        load_grammar(MINI_SEM)


def test_in_file_semantics_shadow_env():
    sem = parse_file(MINI_SEM).semantics[0]
    contents = parse_file(MINI_SEM + 'grammar g uses s\n  syncat V\n  basic v : V = "v" => x\n', env={"s": sem})
    assert contents.grammars[0].semantics == sem


def test_validate_pair_identity(paper_grammar):
    pair = validate_pair(paper_grammar, paper_grammar)
    assert pair.source is pair.target


def test_validate_pair_shared_component(enfr):
    # en-np and fr-np resolve 'np-sem' from the same semantics file
    assert enfr.pair.source.semantics == enfr.pair.target.semantics


def test_validate_pair_rejects_different_components(paper_grammar, enfr):
    with pytest.raises(SemanticsMismatchError) as err:
        validate_pair(paper_grammar, enfr.pair.target)
    assert "'paper-sem' vs 'np-sem'" in str(err.value)


def test_validate_pair_rejects_same_name_different_structure():
    variant = MINI_SEM.replace("mrule F : ( X ) -> Y", "mrule F : ( Y ) -> X")
    g1 = load_grammar(MINI_SEM + 'grammar g uses s\n  syncat V\n  basic v : V = "v" => x\n')
    g2 = load_grammar(variant + 'grammar h uses s\n  syncat V\n  basic v : V = "v" => x\n')
    with pytest.raises(SemanticsMismatchError) as err:
        validate_pair(g1, g2)
    assert "declarations differ" in str(err.value)


def test_duplicate_meaning_in_list_rejected():
    with pytest.raises(GrammarFormatError) as err:
        load_grammar(mini_grammar('  syncat V\n  basic v : V = "v" => x, x\n'))
    assert "duplicate meaning 'x'" in str(err.value)


def test_interpretation_alone_puts_carried_meanings_in_name_order():
    g = load_grammar(
        """
semantics s
  semcat X
  meaning x : X
  meaning w : X
grammar g uses s
  syncat V
  basic v : V = "v" => x, w
"""
    )
    assert g.basics[0].meanings == ("x", "w")
    assert [m.name for m in g.interpretation.leaves["v"]] == ["w", "x"]


@pytest.mark.parametrize("field, kind, name", [("basics", "meaning", "x"), ("rules", "semantic rule", "F")])
def test_duplicate_carried_meaning_rejected_through_the_api(field, kind, name):
    g = load_grammar(mini_grammar('  syncat V W\n  basic v : V = "v" => x\n  rule R : ( V ) -> W = $1 => F\n'))
    (x,) = getattr(g, field)
    with pytest.raises(GrammarValidationError) as err:
        validate_grammar(g._replace(**{field: (x._replace(meanings=(name, name)),)}))
    assert f"duplicate {kind} '{name}'" in str(err.value)


def test_empty_template_rejected():
    with pytest.raises(GrammarFormatError) as err:
        load_grammar(mini_grammar('  syncat V W\n  basic v : V = "v" => x\n  rule R : ( V ) -> W = => F\n'))
    assert "empty template" in str(err.value)


def test_pair_file_correspondence(enfr):
    corr = enfr.correspondence
    assert corr.categories_for("DETbar") == ("DETf", "DETm")
    assert corr.label_for("DETbar") == "conjunctive"
    assert corr.label_for("Nbar") == "disjunctive"
    assert corr.categories_for("NPbar") == ("NPp",)


def test_pair_file_without_correspondence(enfr_homviol):
    assert enfr_homviol.correspondence is None


def test_pair_file_missing_side(tmp_path):
    p = tmp_path / "bad.cgp"
    p.write_text("semantics np-sem.cg\nsource en-np.cg\n")
    (tmp_path / "np-sem.cg").write_text((FIXTURES / "np-sem.cg").read_text())
    (tmp_path / "en-np.cg").write_text((FIXTURES / "en-np.cg").read_text())
    with pytest.raises(GrammarFormatError) as err:
        load_pair(p)
    assert "must declare a 'target' line" in str(err.value)


def test_pair_file_unknown_correspondence_category(tmp_path):
    for name in ("np-sem.cg", "en-np.cg", "fr-np.cg"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    p = tmp_path / "bad.cgp"
    p.write_text(
        "semantics np-sem.cg\nsource en-np.cg\ntarget fr-np.cg\n"
        "correspond Nope -> { Nm } disjunctive\n"
    )
    with pytest.raises(GrammarFormatError) as err:
        load_pair(p)
    assert "unknown semantic category 'Nope'" in str(err.value)


# Exact diagnostics, ``path:line:column: message``, for malformed files. The
# grammar block opens on line 5 and its "syncat V W" is line 6, so the probed
# line is line 7.
SEM_AND_GRAMMAR = (
    "semantics s\n  semcat X Y\n  meaning x : X\n  mrule F : ( X ) -> Y\n"
    "grammar g uses s\n  syncat V W\n"
)


@pytest.mark.parametrize(
    "text, expected",
    [
        # an unterminated quote runs to the end of its line
        (SEM_AND_GRAMMAR + '  basic v : V = "v', "t.cg:7:17: unterminated quoted token"),
        (SEM_AND_GRAMMAR + '  basic v : V = "" => x', "t.cg:7:17: empty quoted token"),
        (
            SEM_AND_GRAMMAR + '  basic v : V = "a b" => x',
            "t.cg:7:17: quoted token may not contain whitespace or quotes",
        ),
        (
            SEM_AND_GRAMMAR + '  basic v : V = "a\tb" => x',
            "t.cg:7:17: quoted token may not contain whitespace or quotes",
        ),
        ('"semantics" s\n', "t.cg:1:1: line must start with a directive keyword"),
        # inside quotes '#' is literal, so the line goes on past it
        (SEM_AND_GRAMMAR + '  basic v : V = "#" x => x', "t.cg:7:21: surface tokens must be quoted, found 'x'"),
        # outside quotes it starts a comment, so the line ends before it
        (SEM_AND_GRAMMAR + '  basic v : V = "v" =>#x', "t.cg:7:23: expected basic meaning name but the line ended"),
        # a comma ends a bare token and is a token of its own
        ("semantics s\n  semcat X,Y\n", "t.cg:2:11: expected semantic category name but found ','"),
        (SEM_AND_GRAMMAR + "  rule R : ( V ) -> W = $1 => F,", "t.cg:7:33: expected semantic rule name but the line ended"),
        # "the line ended" after a quoted token points at its closing quote
        (SEM_AND_GRAMMAR + '  basic v : V = "v"', "t.cg:7:18: expected '=>' before the meaning list"),
        (SEM_AND_GRAMMAR + '  basic v : V = "v" => x "y"', "t.cg:7:26: expected ',' but found 'y'"),
        # a bad surface token is reported before a missing '=>'
        (SEM_AND_GRAMMAR + "  basic v : V = x", "t.cg:7:17: surface tokens must be quoted, found 'x'"),
        # a quoted token is never a name; a message shows it without its quotes
        (SEM_AND_GRAMMAR + '  basic "v" : V = "v" => x', "t.cg:7:9: expected basic expression name but found 'v'"),
        ('semantics s\n  semcat X "Y"', "t.cg:2:12: expected semantic category name but found 'Y'"),
        ('semantics s\n  meaning x : X "z"', "t.cg:2:17: unexpected token 'z'"),
        # columns count a tab as one character
        (SEM_AND_GRAMMAR + "\trule\tR\t:\t(\tV\t)\t->\tW\t=\t$0\t=>\tF", "t.cg:7:24: placeholder indices start at $1"),
        # a no-break space is not a blank: it stays inside the bare token
        (SEM_AND_GRAMMAR + "  syncat Z\xa0W", "t.cg:7:10: expected syntactic category name but found 'Z\xa0W'"),
        # \x0b breaks the line, as str.splitlines does
        (SEM_AND_GRAMMAR + "  syncat Z\x0bW", "t.cg:8:1: unknown directive 'W'"),
        # every line is lexed before the first directive is read
        ('nonsense\nsemantics s\n  semcat "X\n', "t.cg:3:10: unterminated quoted token"),
        ("semantics s\n  semcat X\n  nonsense X\n", "t.cg:3:3: unknown directive 'nonsense'"),
        ("semantics s\n  sem-cat X\n", "t.cg:2:3: unknown directive 'sem-cat'"),
        ("  meaning x : X\n", "t.cg:1:3: 'meaning' is only allowed inside a 'semantics' block"),
        # validation walks a block as declared, not in the signature's name order
        (
            "semantics s\n  semcat X\n  meaning z : Q\n  meaning a : R\n",
            "t.cg:1: basic meaning 'z' uses undeclared category 'Q'",
        ),
        (
            SEM_AND_GRAMMAR + '  basic z : Q = "z" => x\n  basic a : R = "a" => x\n',
            "t.cg:5: basic expression 'z' uses undeclared category 'Q'",
        ),
        # so does the cycle search: here name order would report Q -> P -> Q (rule 'Ro')
        (
            "semantics s\n  semcat X\n  meaning x : X\n  mrule F : ( X ) -> X\n  mrule G : ( X X ) -> X\n"
            'grammar g uses s\n  syncat P Q R\n  basic p : P = "p" => x\n  rule Rb : ( P ) -> R = $1 => F\n'
            '  rule Rl : ( P P ) -> P = $2 "u" $1 => G\n  rule Ra : ( Q ) -> P = $1 => F\n'
            "  rule Ro : ( P ) -> Q = $1 => F\n",
            "t.cg:6: unary terminal-free rule cycle through categories P -> Q -> P (rule 'Ra')",
        ),
    ],
)
def test_format_error_messages(text, expected):
    with pytest.raises(GrammarFormatError) as err:
        parse_file(text, path="t.cg")
    assert str(err.value) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("semantics s.cg\nconnect a b\n", "2:1: unknown directive 'connect'"),
        ("semantics s.cg\nsource a.cg\nsource b.cg\n", "3:1: duplicate 'source' line"),
        (
            "semantics s.cg\nsource a.cg\ntarget b.cg\ncorrespond NPbar -> { NP } \"conjunctive\"\n",
            "4:28: expected 'conjunctive' or 'disjunctive', found 'conjunctive'",
        ),
        (
            "semantics s.cg\nsource a.cg\ntarget b.cg\ncorrespond NPbar -> { NP\n",
            "4:25: expected '}' but the line ended",
        ),
    ],
)
def test_pair_file_format_error_messages(tmp_path, text, expected):
    p = tmp_path / "p.cgp"
    p.write_text(text)
    with pytest.raises(GrammarFormatError) as err:
        load_pair(p)
    assert str(err.value) == f"{p}:{expected}"


# Correspondence errors found once the referenced files are loaded point at the
# end of the entry's correspond line, the first bad line in file order.
@pytest.mark.parametrize(
    "lines, expected",
    [
        ("correspond Nope -> { Nm } disjunctive\n", "4:38: correspondence names unknown semantic category 'Nope'"),
        (
            "correspond NPbar -> { NPp } conjunctive\ncorrespond Nope -> { Nm } disjunctive   # comment\n",
            "5:38: correspondence names unknown semantic category 'Nope'",
        ),
        (
            "correspond Nbar -> { Nm Nf } disjunctive\ncorrespond Nbar -> { Zz } disjunctive\n",
            "5:38: duplicate correspondence for semantic category 'Nbar'",
        ),
        # the first undeclared category as written, not in sorted order
        (
            "correspond Nbar -> { Nm Zz Aa } disjunctive\n",
            "4:44: correspondence for 'Nbar' names 'Zz', which grammar 'fr-np' does not declare",
        ),
        (
            "correspond NPbar -> { NPp Zz } conjunctive\ncorrespond DETbar -> { Aa } conjunctive\n",
            "4:43: correspondence for 'NPbar' names 'Zz', which grammar 'fr-np' does not declare",
        ),
    ],
)
def test_pair_file_correspondence_error_messages(tmp_path, lines, expected):
    for name in ("np-sem.cg", "en-np.cg", "fr-np.cg"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    p = tmp_path / "p.cgp"
    p.write_text("semantics np-sem.cg\nsource en-np.cg\ntarget fr-np.cg\n" + lines)
    with pytest.raises(GrammarFormatError) as err:
        load_pair(p)
    assert str(err.value) == f"{p}:{expected}"


FRAGMENTS = [
    "semantics", "grammar", "uses", "semcat", "syncat", "meaning", "mrule", "basic", "rule", "s",
    "X", "V", "x", "F", ":", "(", ")", "->", "=", "=>", "$1", "$0", '"v"', '"', ",", "#", " ", "\t",
    "\n", "\x0b", "\x0c", "\r", "\xa0", "-",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
def test_any_text_loads_or_fails_at_a_place_inside_it(text):
    try:
        parse_file(text, path="t.cg")
    except GrammarFormatError as e:
        lines = text.splitlines()
        assert 1 <= e.line <= len(lines)
        assert e.column is None or 1 <= e.column <= len(lines[e.line - 1]) + 1
