"""Render a physical plan tree as an EXPLAIN string.

One node per line, children indented below their parent::

    HashAggregate [booked=sum(no_tickets)]
      Filter screening_id = 3
        IndexEq on reservation using screening_id = 3
"""

from __future__ import annotations

from repro.db.engine.plan import PlanNode

__all__ = ["render_plan"]


def render_plan(plan: PlanNode) -> str:
    """Multi-line EXPLAIN rendering of ``plan``."""
    lines: list[str] = []
    _render(plan, 0, lines)
    return "\n".join(lines)


def _render(node: PlanNode, depth: int, lines: list[str]) -> None:
    lines.append("  " * depth + node.describe())
    for child in node.children():
        _render(child, depth + 1, lines)
