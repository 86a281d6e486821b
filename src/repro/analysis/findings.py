"""Finding record emitted by lint rules."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "PARSE_ERROR_ID"]

#: Pseudo-rule id for files the engine cannot parse.
PARSE_ERROR_ID = "RP000"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Attributes:
        file: Path of the offending file, as given to the engine.
        line: 1-based line number.
        col: 1-based column number.
        rule_id: Stable rule identifier (``RPnnn``).
        message: Human-readable explanation.
    """

    file: str
    line: int
    col: int
    rule_id: str
    message: str

    def to_dict(self) -> dict:
        """JSON-ready representation (``rule-id`` aliased for tooling)."""
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "rule_id": self.rule_id,
            "rule-id": self.rule_id,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line text rendering (``path:line:col: RPnnn message``)."""
        return f"{self.file}:{self.line}:{self.col}: {self.rule_id} {self.message}"
