"""Report serialization: flat `key = value` text and a JSON tree.

Insertion order is preserved so reports are deterministic.  A text value
that is a list, tuple or dict is written as JSON.
"""

from __future__ import annotations

import json


def render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, default=str)
    return str(value)


def to_text(report: dict) -> str:
    return "\n".join(f"{k} = {render_value(v)}" for k, v in report.items()) + "\n"


def to_tree(report: dict) -> str:
    return json.dumps(report, indent=2, default=str) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "tree":
        return to_tree(report)
    return to_text(report)
