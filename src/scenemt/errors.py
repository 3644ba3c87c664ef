"""Exception hierarchy shared across the toolkit, and its one integer reader.

The CLI maps these onto exit codes: ConfigError -> 2 (usage),
ParseError / StructuralError / DimensionError / UndefinedResultError -> 3
(bad input), NumericError -> 4. Every reader reads its integers with
`non_negative_int` and turns its ValueError into the reader's own error.
"""


class SceneMtError(Exception):
    """Base class for all toolkit errors."""


class ParseError(SceneMtError):
    """Malformed record in an input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StructuralError(SceneMtError):
    """Well-formed input that violates a structural invariant."""


class ConfigError(SceneMtError):
    """Invalid configuration or hyperparameter value."""


class DimensionError(SceneMtError):
    """Shape or length mismatch between related objects."""


class UndefinedResultError(SceneMtError):
    """The requested quantity is undefined for this input (e.g. all ties)."""


class NumericError(SceneMtError):
    """Non-finite value where a finite one is required."""

    def __init__(self, message, step=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


def non_negative_int(text):
    """`int(text)` for str or bytes of ASCII digits, else ValueError; int() alone would
    also take a sign, '_' separators, spaces and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a non-negative integer")
    return int(text)
