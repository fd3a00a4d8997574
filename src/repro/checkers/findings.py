"""The one diagnostic type every rule of ``repro lint`` emits.

A :class:`Finding` is a rule id, a location, a one-line message and a
fix hint.  Findings are ordered by location so reports are stable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic emitted by an analyzer."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = field(compare=False, default="")

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def render_github(self) -> str:
        """One GitHub Actions workflow-command annotation."""
        return (
            f"::error file={self.path},line={self.line},"
            f"col={self.col},title={self.rule}::{self.message}"
        )
