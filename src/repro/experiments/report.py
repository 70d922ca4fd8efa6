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
from repro.experiments.records import RunPolicy


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
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> str:
    """Run experiments and render a Markdown report.

    With no resilience option the experiments run in this process (see
    :func:`repro.experiments.run_batch`).  With ``timeout_s`` or
    ``retries`` set they run on one supervised pool worker and a
    *partial* report is produced: failed or timed-out experiments get a
    clearly marked **FAILED** section with the error instead of
    aborting the whole document.  Either way every experiment the
    result store holds is read back rather than run, so a re-run after
    an interruption recomputes only what did not finish.

    Args:
        experiment_ids: which experiments to include (default: all, in
            registry order).
        title: the document heading.
        timeout_s: per-experiment wall-clock limit in seconds.
        retries: extra attempts for failed/timed-out experiments.
    """
    ids = list(experiment_ids or experiment_registry())
    outcomes = run_batch(ids, RunPolicy(timeout_s=timeout_s, retries=retries))
    sections = [f"# {title}", ""]
    sections.append(
        "Machine-generated by `repro.experiments.report`; see EXPERIMENTS.md"
        " for the paper-vs-measured analysis."
    )
    sections.append("")
    failed = [o for o in outcomes if not o.ok]
    if failed:
        sections.append(
            f"> **Partial report:** {len(failed)} of {len(outcomes)}"
            f" experiment(s) failed —"
            f" {', '.join(o.experiment_id for o in failed)}."
        )
        sections.append("")
    for outcome in outcomes:
        if outcome.ok:
            _append_result_section(
                sections, outcome.experiment_id, outcome.result
            )
        else:
            sections.append(
                f"## {outcome.experiment_id} — FAILED ({outcome.status})"
            )
            sections.append("")
            sections.append(f"Failed after {outcome.attempts} attempt(s):")
            sections.append("")
            sections.append("```")
            sections.append(outcome.error.rstrip())
            sections.append("```")
            sections.append("")
    return "\n".join(sections)


def _append_result_section(sections: List[str], eid: str, result) -> None:
    sections.append(f"## {eid} — {result.title}")
    sections.append("")
    sections.append(_markdown_table(result.rows))
    if result.notes:
        sections.append("")
        sections.append(f"*{result.notes}*")
    sections.append("")
