"""Experiment result container and table formatting."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Sequence

from repro.jsonutil import jsonable


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """Monospace table with right-aligned numeric columns."""
    if not rows:
        return " | ".join(headers)
    cols = len(headers)
    for r in rows:
        if len(r) != cols:
            raise ValueError(
                f"row {r!r} has {len(r)} cells, expected {cols}"
            )
    text_rows = [[_fmt(c) for c in r] for r in rows]
    widths = [
        max(len(headers[i]), max(len(r[i]) for r in text_rows))
        for i in range(cols)
    ]
    def line(cells):
        return " | ".join(c.rjust(widths[i]) for i, c in enumerate(cells))
    sep = "-+-".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in text_rows])


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1000 else f"{value:.4e}"
    return str(value)


@dataclass
class ExperimentResult:
    """Output of one table/figure reproduction.

    Attributes
    ----------
    exp_id:
        Paper identifier, e.g. ``"table4"`` or ``"figure10"``.
    title:
        Human-readable description.
    body:
        The regenerated table/series as preformatted text.
    data:
        Machine-readable values for assertions in benchmarks/tests.
    paper_reference:
        The corresponding numbers the paper reports, for side-by-side
        reading.
    """

    exp_id: str
    title: str
    body: str
    data: Dict[str, Any] = field(default_factory=dict)
    paper_reference: str = ""

    def render(self) -> str:
        parts = [f"== {self.exp_id}: {self.title} ==", self.body]
        if self.paper_reference:
            parts.append(f"[paper] {self.paper_reference}")
        return "\n".join(parts)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable dict (numpy values converted)."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "body": self.body,
            "data": jsonable(self.data),
            "paper_reference": self.paper_reference,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentResult":
        return cls(
            exp_id=payload["exp_id"],
            title=payload["title"],
            body=payload["body"],
            data=payload.get("data", {}),
            paper_reference=payload.get("paper_reference", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def save(self, directory: str = "results") -> str:
        """Write the text render plus a machine-readable JSON twin.

        Returns the text path; the JSON lands next to it as
        ``<exp_id>.json``.
        """
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.exp_id}.txt")
        with open(path, "w") as fh:
            fh.write(self.render() + "\n")
        with open(os.path.join(directory, f"{self.exp_id}.json"), "w") as fh:
            fh.write(self.to_json() + "\n")
        return path
