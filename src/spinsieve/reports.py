"""Structured experiment reports with stable CSV/JSON serialization.

CSV: one header line, comma separated, floats printed with 12 significant
digits, no locale dependence.  JSON: a single object
{command, parameters, rows, summary, schema_version}, whose values the
commands keep to JSON's own types; any other value (a Fraction, a numpy
scalar) makes render raise TypeError.  Report.render is
the one writer: it streams either format to standard output, and its bytes
are a pure function of the report contents, so identical runs produce
identical bytes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

__all__ = ["Report", "REPORT_SCHEMA"]

SCHEMA_VERSION = 1

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "parameters", "rows", "summary", "schema_version"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "rows": {"type": "array", "items": {"type": "object"}},
        "summary": {"type": "object"},
        "schema_version": {"const": SCHEMA_VERSION},
    },
}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


@dataclass
class Report:
    command: str
    parameters: dict
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def render(self, fmt: str) -> None:
        """Write the report to sys.stdout as it is at the call, so that a
        redirect of standard output takes effect.  Both formats stream: CSV
        writes its header and then one row at a time, and json.dump each
        chunk as it is encoded, so the text of a large report is never held
        whole."""
        out = sys.stdout
        if fmt == "json":
            obj = {
                "command": self.command,
                "parameters": self.parameters,
                "rows": self.rows,
                "summary": self.summary,
                "schema_version": self.schema_version,
            }
            json.dump(obj, out, indent=2)
            out.write("\n")
        elif fmt == "csv":
            cols = list(self.rows[0]) if self.rows else []
            out.write(",".join(cols) + "\n")
            for row in self.rows:
                out.write(",".join(_fmt(row[c]) for c in cols) + "\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
