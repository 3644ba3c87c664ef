"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2 (usage),
ParseError / StructuralError / DimensionError / UndefinedResultError -> 3
(bad input), NumericError -> 4.
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
