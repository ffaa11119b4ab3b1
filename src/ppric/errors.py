"""Exception types shared across the package, and the input-file reader
that turns an unreadable file into one of them.

Four failure families are kept apart so callers (and the CLI exit-code
mapping) can tell bad input from blown resource caps:

* ParameterError    -- arguments violate a documented precondition
* CapacityError     -- the request is well-formed but exceeds an enumeration
                       or search cap
* FormatError       -- a file or literal could not be parsed
* ConstructionError -- a code or family the package built failed its own check
"""


class ParameterError(ValueError):
    """Arguments violate a documented precondition."""


class CapacityError(RuntimeError):
    """A size or node cap would be exceeded; the request is refused."""


class FormatError(ValueError):
    """A serialized word, code, design, or database failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConstructionError(AssertionError):
    """A code or family the package built failed its own check."""


def read_text(path: str) -> str:
    """The UTF-8 text of an input file; FormatError when it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
