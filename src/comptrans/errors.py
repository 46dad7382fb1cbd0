"""Exception types shared across the package."""

__all__ = [
    "AmbiguityCapError", "ComptransError", "CorrespondenceError", "GrammarFormatError",
    "GrammarValidationError", "IllFormedTreeError", "ResourceLimitError", "SemanticsMismatchError",
    "TupleCapError", "UnknownNameError",
]


class ComptransError(Exception):
    """Base class for all errors raised by this package."""


class GrammarFormatError(ComptransError):
    """A grammar or pair file is syntactically malformed.

    Carries the file path (when known) and the 1-based line/column of the
    offending token so diagnostics point at the exact spot.
    """

    def __init__(self, message, path=None, line=None, column=None):
        self.path = path
        self.line = line
        self.column = column
        super().__init__(message)

    def __str__(self):
        where = self.path or "<input>"
        if self.line is not None:
            where += f":{self.line}"
            if self.column is not None:
                where += f":{self.column}"
        return f"{where}: {self.args[0]}"


class GrammarValidationError(GrammarFormatError):
    """A structurally parsed grammar violates a model invariant.

    Examples: undeclared category, duplicate name, arity mismatch between a
    syntactic rule and an associated semantic rule, missing or duplicated
    placeholder, unary terminal-free rule cycle.
    """


class SemanticsMismatchError(ComptransError):
    """Source and target grammars do not share one semantic component."""


class UnknownNameError(ComptransError):
    """A derivation tree references a name the grammar does not declare."""


class IllFormedTreeError(ComptransError):
    """An operation that requires a well-formed tree was given an ill-formed one."""


class CorrespondenceError(ComptransError):
    """A category correspondence does not fit the pair it is checked against."""


class ResourceLimitError(ComptransError):
    """A configured resource cap was exceeded; results were not truncated silently."""

    def __init__(self, message, limit):
        self.limit = limit
        super().__init__(message)


class AmbiguityCapError(ResourceLimitError):
    """Parsing produced more derivation trees than the ambiguity cap allows."""


class TupleCapError(ResourceLimitError):
    """Correspondence-tuple enumeration exceeded the configured cap."""
