"""Loader for grammar (.cg) and pair (.cgp) files.

Grammar and pair files are UTF-8; a byte that is not is a format error at
its line. Grammar files are line-based, with lines split as
:meth:`str.splitlines` splits them. Tokens are separated by blanks, which are
spaces and tabs. A quoted token ``"<tok>"`` holds no blank and no quote.
Outside quotes ``#`` starts a comment; inside quotes it is literal. A comma is
a token of its own, so it ends a bare token (``a,b`` is three tokens). A file
holds any number of blocks:

    semantics <name>
        semcat <Name>...
        meaning <name> : <SemCat>
        mrule <Name> : ( <SemCat>... ) -> <SemCat>
    grammar <name> uses <semantics-name>
        syncat <Name>...
        basic <name> : <SynCat> = "<tok>" ["<tok>"...] => <meaning>[, <meaning>...]
        rule <Name> : ( <SynCat>... ) -> <SynCat> = <item>... => <mrule>[, <mrule>...]

where an ``<item>`` is a quoted terminal ``"<tok>"`` or a placeholder ``$<i>``.

Pair files reference a semantics file and two grammar files by path (relative
to the pair file) and declare the category correspondence:

    semantics <path> [<component-name>]
    source <path> [<grammar-name>]
    target <path> [<grammar-name>]
    correspond <SemCat> -> { <SynCat>... } <conjunctive|disjunctive>

Loading is deterministic: the same bytes always produce structurally equal
values. A token is its source text, quotes included, and its column is worked
out again from the line only when an error is reported there.
"""

import re
from pathlib import Path
from typing import NamedTuple

from .completeness import CategoryCorrespondence, CorrespondenceEntry, _correspondence_errors
from .errors import ComptransError, GrammarFormatError, GrammarValidationError
from .model import (
    SEMANTICS,
    SYNTAX,
    BasicExpression,
    BasicMeaning,
    CompositionalGrammar,
    GrammarPair,
    SemanticComponent,
    SemRule,
    SyntacticRule,
    check_unique,
    validate_grammar,
    validate_pair,
    validate_semantics,
)

__all__ = ["FileContents", "LoadedPair", "load_grammar", "load_grammar_file", "load_pair", "parse_file"]

_NAME_RE = re.compile(r"^[^\W\d][\w'\-]*$")
_PLACEHOLDER_RE = re.compile(r"^\$(\d+)$")
# a quoted token (unterminated if it runs to the end of the line without its
# closing quote), a comma or a comment sign, or a bare token; blanks match none
_TOKEN_RE = re.compile(r'"[^"]*"?|[,#]|[^ \t#",]+')


def _text(tok: str) -> str:
    """What a token says: a quoted token without its quotes."""
    return tok[1:-1] if tok[0] == '"' else tok


def _directives(text: str, path: str | None):
    """``(line parser past the keyword, keyword)`` for each non-empty line.

    Every line is lexed before the first is yielded, so a lexical error is
    reported before a directive error on an earlier line.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _TOKEN_RE.findall(raw)
        if "#" in tokens:
            del tokens[tokens.index("#") :]
        if not tokens:
            continue
        lp = _LineParser(raw, tokens, path, lineno)
        for i, tok in enumerate(tokens):
            if tok[0] != '"':
                continue
            if len(tok) == 1 or tok[-1] != '"':
                raise lp.error("unterminated quoted token", i)
            if len(tok) == 2:
                raise lp.error("empty quoted token", i)
            if " " in tok or "\t" in tok:
                raise lp.error("quoted token may not contain whitespace or quotes", i)
        lines.append(lp)
    for lp in lines:
        if lp.tokens[0][0] == '"':
            raise lp.error("line must start with a directive keyword", 0)
        yield lp, lp.tokens[0]


class _LineParser:
    """Cursor over one line's tokens, past its keyword, with located errors."""

    def __init__(self, raw: str, tokens: list[str], path: str | None, lineno: int):
        self.raw = raw
        self.tokens = tokens
        self.path = path
        self.lineno = lineno
        self.pos = 1

    def error(self, message: str, at: int | None = None) -> GrammarFormatError:
        """An error at token ``at``, or just past the last token's text (a quoted one's closing quote)."""
        past = 0
        if at is None:
            at = len(self.tokens) - 1
            past = len(_text(self.tokens[at]))
        start = [m.start() for m in _TOKEN_RE.finditer(self.raw)][at]
        return GrammarFormatError(message, self.path, self.lineno, start + 1 + past)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> str:
        if self.pos == len(self.tokens):
            raise self.error(f"expected {what} but the line ended")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, literal: str) -> None:
        if self.peek() != literal:
            raise self._mismatch(f"'{literal}'")
        self.pos += 1

    def name(self, what: str) -> str:
        pos = self.pos
        if pos < len(self.tokens) and _NAME_RE.match(self.tokens[pos]):
            self.pos = pos + 1
            return self.tokens[pos]
        raise self._mismatch(what)

    def _mismatch(self, what: str) -> GrammarFormatError:
        """The error for the token at the cursor, which is not ``what``, or for the line ending before one."""
        tok = self.next(what)
        return self.error(f"expected {what} but found '{_text(tok)}'", self.pos - 1)

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error(f"unexpected token '{_text(tok)}'", self.pos)

    def names_to_end(self, what: str, sep: str | None = None) -> list[str]:
        """One or more names up to the end of the line, each after the first preceded by ``sep``."""
        names = [self.name(what)]
        while self.pos < len(self.tokens):
            if sep is not None:
                self.expect(sep)
            names.append(self.name(what))
        return names

    def bracketed_names(self, what: str, open_: str = "(", close: str = ")") -> list[str]:
        self.expect(open_)
        names = []
        while self.peek() != close:
            if self.pos == len(self.tokens):
                raise self.error(f"expected '{close}' but the line ended")
            names.append(self.name(what))
        self.pos += 1
        return names


class FileContents(NamedTuple):
    """Everything declared by one grammar file, in declaration order."""

    semantics: tuple[SemanticComponent, ...]
    grammars: tuple[CompositionalGrammar, ...]


# the block each body directive belongs to, and the kind of signature a block declares
_BLOCK_OF = {
    "semcat": "semantics",
    "meaning": "semantics",
    "mrule": "semantics",
    "syncat": "grammar",
    "basic": "grammar",
    "rule": "grammar",
}
_KIND_OF = {"semantics": SEMANTICS, "grammar": SYNTAX}


class _FileParser:
    def __init__(self, path: str | None, env: dict[str, SemanticComponent] | None):
        self.path = path
        self.env = dict(env or {})
        self.semantics: list[SemanticComponent] = []
        self.grammars: list[CompositionalGrammar] = []
        # the open block: its keyword and first line, then what it declares
        self.block: str | None = None
        self.block_line: _LineParser | None = None
        self.name = ""
        self.uses: SemanticComponent | None = None
        self.cats: list[str] = []
        self.leaves: list = []
        self.ops: list = []

    def parse(self, text: str) -> FileContents:
        for lp, head in _directives(text, self.path):
            handler = getattr(self, "_dir_" + head, None)
            if handler is None:
                raise lp.error(f"unknown directive '{head}'", 0)
            block = _BLOCK_OF.get(head)
            if block is not None and self.block != block:
                raise lp.error(f"'{head}' is only allowed inside a '{block}' block", 0)
            handler(lp)
        self._close_block()
        return FileContents(tuple(self.semantics), tuple(self.grammars))

    # -- block management ---------------------------------------------------

    def _open_block(self, lp: _LineParser, block: str) -> None:
        self._close_block()
        self.block, self.block_line = block, lp
        self.cats, self.leaves, self.ops = [], [], []

    def _close_block(self) -> None:
        if self.block is None:
            return
        parts = (self.name, tuple(self.cats), tuple(self.leaves), tuple(self.ops))
        if self.block == "semantics":
            x, validate, declared = SemanticComponent(*parts), validate_semantics, self.semantics
            # an in-file declaration shadows one supplied through env
            self.env[x.name] = x
        else:
            x, validate, declared = CompositionalGrammar(*parts, self.uses), validate_grammar, self.grammars
        line = self.block_line.lineno
        try:
            validate(x)
        except GrammarValidationError as e:
            raise GrammarValidationError(e.args[0], self.path, line) from None
        if any(other.name == x.name for other in declared):
            raise GrammarFormatError(
                f"{x.signature.kind.component} '{x.name}' declared more than once", self.path, line
            )
        declared.append(x)
        self.block = None

    # -- directives ---------------------------------------------------------

    def _dir_semantics(self, lp: _LineParser) -> None:
        self._open_block(lp, "semantics")
        self.name = lp.name("semantic component name")
        lp.done()

    def _dir_grammar(self, lp: _LineParser) -> None:
        self._open_block(lp, "grammar")
        self.name = lp.name("grammar name")
        lp.expect("uses")
        sem_name = lp.name("semantic component name")
        lp.done()
        self.uses = self.env.get(sem_name)
        if self.uses is None:
            raise lp.error(f"grammar '{self.name}' uses unknown semantic component '{sem_name}'")

    def _declaration(self, lp: _LineParser, op: bool) -> tuple[str, tuple[str, ...], str]:
        """``<name> : <cat>`` for a leaf, ``<name> : ( <cat>... ) -> <cat>`` for an operator."""
        kind = _KIND_OF[self.block]
        name = lp.name(f"{kind.op if op else kind.leaf} name")
        lp.expect(":")
        args = ()
        if op:
            args = tuple(lp.bracketed_names(f"{kind.sort} name"))
            lp.expect("->")
        return name, args, lp.name(f"{kind.sort} name")

    def _dir_semcat(self, lp: _LineParser) -> None:
        self.cats.extend(lp.names_to_end(f"{_KIND_OF[self.block].sort} name"))

    _dir_syncat = _dir_semcat

    def _dir_meaning(self, lp: _LineParser) -> None:
        name, _, cat = self._declaration(lp, op=False)
        lp.done()
        self.leaves.append(BasicMeaning(name, cat))

    def _dir_mrule(self, lp: _LineParser) -> None:
        name, args, result = self._declaration(lp, op=True)
        lp.done()
        self.ops.append(SemRule(name, args, result))

    @staticmethod
    def _until_arrow(lp: _LineParser, what: str):
        """``(index, token)`` for each token before ``=>``, which is consumed."""
        for i in range(lp.pos, len(lp.tokens)):
            if lp.tokens[i] == "=>":
                lp.pos = i + 1
                return
            yield i, lp.tokens[i]
        raise lp.error(f"expected '=>' before the {what} list")

    def _dir_basic(self, lp: _LineParser) -> None:
        name, _, cat = self._declaration(lp, op=False)
        lp.expect("=")
        surface = []
        for i, tok in self._until_arrow(lp, "meaning"):
            if tok[0] != '"':
                raise lp.error(f"surface tokens must be quoted, found '{tok}'", i)
            surface.append(tok[1:-1])
        if not surface:
            raise lp.error(f"basic expression '{name}' has an empty surface")
        meanings = lp.names_to_end("basic meaning name", ",")
        check_unique("meaning", meanings, lp.error)
        self.leaves.append(BasicExpression(name, cat, tuple(surface), tuple(meanings)))

    def _dir_rule(self, lp: _LineParser) -> None:
        name, args, result = self._declaration(lp, op=True)
        lp.expect("=")
        template: list[str | int] = []
        for i, tok in self._until_arrow(lp, "semantic rule"):
            if tok[0] == '"':
                template.append(tok[1:-1])
                continue
            m = _PLACEHOLDER_RE.match(tok)
            if not m:
                raise lp.error(f"template items are quoted terminals or $<i> placeholders, found '{tok}'", i)
            idx = int(m.group(1))
            if idx < 1:
                raise lp.error("placeholder indices start at $1", i)
            template.append(idx)
        if not template:
            raise lp.error(f"rule '{name}' has an empty template")
        meanings = lp.names_to_end("semantic rule name", ",")
        check_unique("semantic rule", meanings, lp.error)
        self.ops.append(SyntacticRule(name, args, result, tuple(template), tuple(meanings)))


def parse_file(
    text: str,
    path: str | None = None,
    env: dict[str, SemanticComponent] | None = None,
) -> FileContents:
    """Parse one grammar file; ``env`` supplies externally declared semantics."""
    return _FileParser(path, env).parse(text)


def load_grammar(
    text: str,
    path: str | None = None,
    env: dict[str, SemanticComponent] | None = None,
) -> CompositionalGrammar:
    """Load a file expected to declare exactly one grammar, and return it."""
    contents = parse_file(text, path, env)
    if len(contents.grammars) != 1:
        raise GrammarFormatError(
            f"expected exactly one grammar block, found {len(contents.grammars)}", path
        )
    return contents.grammars[0]


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; raises :class:`GrammarFormatError` at the first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the line and column the byte would have if the text went on past it
        lines = (data[: e.start].decode("utf-8") + "?").splitlines()
        raise GrammarFormatError(
            f"byte 0x{data[e.start]:02x} is not UTF-8", str(path), len(lines), len(lines[-1])
        ) from None


def load_grammar_file(path: str | Path, env: dict[str, SemanticComponent] | None = None) -> CompositionalGrammar:
    p = Path(path)
    return load_grammar(read_text(p), str(p), env)


class LoadedPair(NamedTuple):
    """A pair file resolved to grammars plus its declared correspondence."""

    pair: GrammarPair
    correspondence: CategoryCorrespondence | None
    path: str | None = None


def pick(items: tuple, name: str | None, kind: str, path: str, hint: str, error=ComptransError):
    """The ``kind`` called ``name`` among ``items``, or the only one when ``name`` is None."""
    if name is not None:
        for x in items:
            if x.name == name:
                return x
        raise error(f"file '{path}' declares no {kind} '{name}'")
    if not items:
        raise error(f"file '{path}' declares no {kind}")
    if len(items) > 1:
        raise error(f"file '{path}' declares {len(items)} {kind}s; {hint}")
    return items[0]


def load_pair(path: str | Path) -> LoadedPair:
    """Load a ``.cgp`` pair file and everything it references."""
    p = Path(path)
    text = read_text(p)
    refs: dict[str, tuple[_LineParser, str, str | None]] = {}
    correspond_lines: list[_LineParser] = []
    entries: list[tuple[str, list[str], str]] = []

    for lp, head in _directives(text, str(p)):
        if head in ("semantics", "source", "target"):
            ref_path = _text(lp.next("file path"))
            name = lp.name("name") if lp.peek() is not None else None
            lp.done()
            if head in refs:
                raise lp.error(f"duplicate '{head}' line", 0)
            refs[head] = (lp, ref_path, name)
        elif head == "correspond":
            sem_cat = lp.name("semantic category name")
            lp.expect("->")
            cats = lp.bracketed_names("syntactic category name", "{", "}")
            label = lp.next("'conjunctive' or 'disjunctive'")
            if label not in ("conjunctive", "disjunctive"):
                raise lp.error(f"expected 'conjunctive' or 'disjunctive', found '{_text(label)}'", lp.pos - 1)
            lp.done()
            if not cats:
                raise lp.error(f"correspondence set for '{sem_cat}' is empty")
            correspond_lines.append(lp)
            entries.append((sem_cat, cats, label))
        else:
            raise lp.error(f"unknown directive '{head}'", 0)

    for key in ("semantics", "source", "target"):
        if key not in refs:
            raise GrammarFormatError(f"pair file must declare a '{key}' line", str(p), 1, 1)

    def contents(rel: str, env=None) -> FileContents:
        path = (p.parent / rel).resolve()
        return parse_file(read_text(path), str(path), env)

    lp, rel, name = refs["semantics"]
    sem_contents = contents(rel)
    component = pick(sem_contents.semantics, name, "semantic component", rel, "name one explicitly", lp.error)
    env = {sc.name: sc for sc in sem_contents.semantics}
    grammars = {}
    for side in ("source", "target"):
        lp, rel, name = refs[side]
        grammars[side] = pick(contents(rel, env).grammars, name, "grammar", rel, "name one explicitly", lp.error)
        if grammars[side].semantics != component:
            raise lp.error(
                f"{side} grammar '{grammars[side].name}' does not use the pair's semantic "
                f"component '{component.name}'"
            )

    pair = validate_pair(grammars["source"], grammars["target"])

    correspondence = None
    if entries:
        for i, message in _correspondence_errors(pair, entries):
            raise correspond_lines[i].error(message)
        correspondence = CategoryCorrespondence((c, CorrespondenceEntry(cats, label)) for c, cats, label in entries)

    return LoadedPair(pair=pair, correspondence=correspondence, path=str(p))
