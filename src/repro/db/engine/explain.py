"""Render a physical plan tree as an EXPLAIN string.

The format follows the usual engine convention: one node per line,
children indented below their parent, with the planner's row/cost
estimates on every node::

    HashAggregate [booked=sum(no_tickets)]  (rows~1, cost~4.06818)
      Filter screening_id = 3  (rows~1.02273, cost~3.04545)
        IndexEq on reservation using screening_id = 3  (rows~1.02273, cost~2.02273)
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
    estimate = f"  (rows~{node.estimated_rows:g}, cost~{node.cost:g})"
    lines.append("  " * depth + node.describe() + estimate)
    for child in node.children():
        _render(child, depth + 1, lines)
