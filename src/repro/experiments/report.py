"""Markdown report generation: all experiments into one document.

``generate_report()`` runs every registered experiment and renders the
results as a Markdown document with one section per artifact — the
machine-generated companion to the hand-written EXPERIMENTS.md analysis.
Used by the CLI's ``report`` command.

Importing this module reads the built-in registry (``ALL_EXPERIMENTS``),
which imports every experiment and, through them, every accelerator
model, so a report process pays those imports at start-up rather than
inside its first ``generate_report()``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.experiments import (  # noqa: F401  (imports every experiment)
    ALL_EXPERIMENTS,
    experiment_registry,
    run_batch,
)


def _markdown_table(rows: List[Dict[str, Any]], float_digits: int = 3) -> str:
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    header = "| " + " | ".join(columns) + " |"
    divider = "| " + " | ".join("---" for _ in columns) + " |"
    body = "\n".join(
        "| " + " | ".join(fmt(row.get(col, "")) for col in columns) + " |"
        for row in rows
    )
    return "\n".join([header, divider, body])


def generate_report(
    experiment_ids: Optional[Sequence[str]] = None,
    *,
    title: str = "FlexFlow Reproduction Results",
) -> str:
    """Run experiments in this process and render a Markdown report.

    The batch runs through :func:`repro.experiments.run_batch`, so every
    experiment the result store holds is read back rather than run, and
    a re-run after an interruption recomputes only what did not finish.

    Args:
        experiment_ids: which experiments to include (default: all, in
            registry order).
        title: the document heading.
    """
    ids = list(experiment_ids or experiment_registry())
    results = run_batch(ids)
    sections = [f"# {title}", ""]
    sections.append(
        "Machine-generated by `repro.experiments.report`; see EXPERIMENTS.md"
        " for the paper-vs-measured analysis."
    )
    sections.append("")
    for eid, result in zip(ids, results):
        sections.append(f"## {eid} — {result.title}")
        sections.append("")
        sections.append(_markdown_table(result.rows))
        if result.notes:
            sections.append("")
            sections.append(f"*{result.notes}*")
        sections.append("")
    return "\n".join(sections)
