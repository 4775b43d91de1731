"""Exception types and the nesting-depth cap shared across the package.

These three types are the whole error policy of the command line, which
maps them to exit codes: ParseError -> 1, ValidationError -> 2,
CapExceeded -> 3 (an OSError also exits 2).  Input from outside the
program is classified where it enters: bad text is a ParseError, a
well-formed value the command cannot take is a ValidationError, and a
size past a documented cap is CapExceeded.  Any other exception the CLI
sees is a bug and surfaces as one.
"""

# Levels of nesting (JSON arrays and objects, expression brackets and
# calls) that any input may have; deeper input raises CapExceeded before
# it can exhaust the interpreter's recursion limit.
CAP_DEPTH = 100


class ParseError(ValueError):
    """Malformed input text (bad JSON, bad expression syntax, not UTF-8)."""


class ValidationError(ValueError):
    """Well-formed input that violates a documented constraint."""


class CapExceeded(RuntimeError):
    """Requested computation is beyond the documented size caps."""
