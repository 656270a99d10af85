"""Error types raised by the .cat front end and compiler.

All errors carry a source position (line and column, both 1-based) so a
broken model file points at the offending token, not at the compiler.
Every error is a :class:`ValueError`, so the CLI and the campaign
service report a bad ``.cat`` file like any other bad input.
"""

from __future__ import annotations

__all__ = ["CatError", "CatSyntaxError", "CatTypeError", "CatNameError"]


class CatError(ValueError):
    """Base class for every .cat front-end error."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.message = message
        self.line = line
        self.col = col
        where = f" at line {line}:{col}" if line else ""
        super().__init__(f"{message}{where}")


class CatSyntaxError(CatError):
    """Lexing or parsing failure."""


class CatTypeError(CatError):
    """An operator applied to operands of the wrong kind (set vs relation)."""


class CatNameError(CatError):
    """Reference to a name that is not bound in the environment."""
