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
values.
"""

import re
from pathlib import Path
from typing import NamedTuple

from .completeness import CategoryCorrespondence, CorrespondenceEntry
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

_NAME_RE = re.compile(r"^[^\W\d][\w'\-]*$")
_PLACEHOLDER_RE = re.compile(r"^\$(\d+)$")
# a quoted token (unterminated if it runs to the end of the line without its
# closing quote), a comma or a comment sign, or a bare token; blanks match none
_TOKEN_RE = re.compile(r'"[^"]*"?|[,#]|[^ \t#",]+')


class Token(NamedTuple):
    text: str
    column: int
    quoted: bool = False


def _directives(text: str, path: str | None):
    """``(line parser past the keyword, keyword token)`` for each non-empty line.

    Every line is lexed before the first is yielded, so a lexical error is
    reported before a directive error on an earlier line.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = []
        for m in _TOKEN_RE.finditer(raw):
            tok, col = m.group(), m.start() + 1
            if tok == "#":
                break
            if tok[0] != '"':
                tokens.append(Token(tok, col))
                continue
            if len(tok) == 1 or tok[-1] != '"':
                raise GrammarFormatError("unterminated quoted token", path, lineno, col)
            if len(tok) == 2:
                raise GrammarFormatError("empty quoted token", path, lineno, col)
            if " " in tok or "\t" in tok:
                raise GrammarFormatError(
                    "quoted token may not contain whitespace or quotes", path, lineno, col
                )
            tokens.append(Token(tok[1:-1], col, True))
        if tokens:
            lines.append(_LineParser(tokens, path, lineno))
    for lp in lines:
        head = lp.tokens[0]
        if head.quoted:
            raise lp.error("line must start with a directive keyword", head)
        lp.pos = 1
        yield lp, head


class _LineParser:
    """Cursor over one token list, with located errors."""

    def __init__(self, tokens: list[Token], path: str | None, lineno: int):
        self.tokens = tokens
        self.path = path
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str, tok: Token | None = None) -> GrammarFormatError:
        col = tok.column if tok is not None else (self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1)
        return GrammarFormatError(message, self.path, self.lineno, col)

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.error(f"expected {what} but the line ended")
        self.pos += 1
        return tok

    def expect(self, literal: str) -> Token:
        tok = self.next(f"'{literal}'")
        if tok.quoted or tok.text != literal:
            raise self.error(f"expected '{literal}' but found '{tok.text}'", tok)
        return tok

    def name(self, what: str) -> str:
        tok = self.next(what)
        if tok.quoted or not _NAME_RE.match(tok.text):
            raise self.error(f"expected {what} but found '{tok.text}'", tok)
        return tok.text

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error(f"unexpected token '{tok.text}'", tok)

    def names_to_end(self, what: str, sep: str | None = None) -> list[str]:
        """One or more names up to the end of the line, each after the first preceded by ``sep``."""
        names = [self.name(what)]
        while self.peek() is not None:
            if sep is not None:
                self.expect(sep)
            names.append(self.name(what))
        return names

    def bracketed_names(self, what: str, open_: str = "(", close: str = ")") -> list[str]:
        self.expect(open_)
        names = []
        while True:
            tok = self.peek()
            if tok is None:
                raise self.error(f"expected '{close}' but the line ended")
            if not tok.quoted and tok.text == close:
                self.pos += 1
                return names
            names.append(self.name(what))


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
            handler = getattr(self, "_dir_" + head.text, None)
            if handler is None:
                raise lp.error(f"unknown directive '{head.text}'", head)
            block = _BLOCK_OF.get(head.text)
            if block is not None and self.block != block:
                raise lp.error(f"'{head.text}' is only allowed inside a '{block}' block", head)
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
        """The tokens before ``=>``, which is consumed."""
        while True:
            tok = lp.peek()
            if tok is None:
                raise lp.error(f"expected '=>' before the {what} list")
            lp.pos += 1
            if not tok.quoted and tok.text == "=>":
                return
            yield tok

    def _dir_basic(self, lp: _LineParser) -> None:
        name, _, cat = self._declaration(lp, op=False)
        lp.expect("=")
        surface = []
        for tok in self._until_arrow(lp, "meaning"):
            if not tok.quoted:
                raise lp.error(f"surface tokens must be quoted, found '{tok.text}'", tok)
            surface.append(tok.text)
        if not surface:
            raise lp.error(f"basic expression '{name}' has an empty surface")
        meanings = lp.names_to_end("basic meaning name", ",")
        check_unique("meaning", meanings, lp.error)
        self.leaves.append(BasicExpression(name, cat, tuple(surface), tuple(meanings)))

    def _dir_rule(self, lp: _LineParser) -> None:
        name, args, result = self._declaration(lp, op=True)
        lp.expect("=")
        template: list[str | int] = []
        for tok in self._until_arrow(lp, "semantic rule"):
            if tok.quoted:
                template.append(tok.text)
                continue
            m = _PLACEHOLDER_RE.match(tok.text)
            if not m:
                raise lp.error(
                    f"template items are quoted terminals or $<i> placeholders, found '{tok.text}'",
                    tok,
                )
            idx = int(m.group(1))
            if idx < 1:
                raise lp.error("placeholder indices start at $1", tok)
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
    if len(items) != 1:
        raise error(f"file '{path}' declares {len(items)} {kind}s; {hint}")
    return items[0]


def load_pair(path: str | Path) -> LoadedPair:
    """Load a ``.cgp`` pair file and everything it references."""
    p = Path(path)
    text = read_text(p)
    refs: dict[str, tuple[_LineParser, str, str | None]] = {}
    correspond_lines: list[tuple[_LineParser, str, list[str], str]] = []

    for lp, head in _directives(text, str(p)):
        if head.text in ("semantics", "source", "target"):
            ref_path = lp.next("file path").text
            name = lp.name("name") if lp.peek() is not None else None
            lp.done()
            if head.text in refs:
                raise lp.error(f"duplicate '{head.text}' line", head)
            refs[head.text] = (lp, ref_path, name)
        elif head.text == "correspond":
            sem_cat = lp.name("semantic category name")
            lp.expect("->")
            cats = lp.bracketed_names("syntactic category name", "{", "}")
            label = lp.next("'conjunctive' or 'disjunctive'")
            if label.quoted or label.text not in ("conjunctive", "disjunctive"):
                raise lp.error(f"expected 'conjunctive' or 'disjunctive', found '{label.text}'", label)
            lp.done()
            if not cats:
                raise lp.error(f"correspondence set for '{sem_cat}' is empty")
            correspond_lines.append((lp, sem_cat, cats, label.text))
        else:
            raise lp.error(f"unknown directive '{head.text}'", head)

    top = _LineParser([], str(p), 1)
    for key in ("semantics", "source", "target"):
        if key not in refs:
            raise top.error(f"pair file must declare a '{key}' line")

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
    if correspond_lines:
        entries = {}
        target_cats = set(pair.target.categories)
        for lp, sem_cat, cats, label in correspond_lines:
            if sem_cat not in component.categories:
                raise lp.error(f"correspondence names unknown semantic category '{sem_cat}'")
            if sem_cat in entries:
                raise lp.error(f"duplicate correspondence for semantic category '{sem_cat}'")
            for c in cats:
                if c not in target_cats:
                    raise lp.error(
                        f"correspondence for '{sem_cat}' names '{c}', which grammar "
                        f"'{pair.target.name}' does not declare"
                    )
            entries[sem_cat] = CorrespondenceEntry(tuple(sorted(set(cats))), label)
        correspondence = CategoryCorrespondence(tuple(sorted(entries.items())))

    return LoadedPair(pair=pair, correspondence=correspondence, path=str(p))
