"""Records every experiment path shares, with no model imports.

The in-process runs (:mod:`repro.experiments`), the supervised runner
(:mod:`repro.experiments.runner`), the report, the CLI and the serve
coordinator all speak in these: the :class:`ExperimentResult` a paper
artifact regenerates (and its JSON form), the :class:`RunPolicy` a
batch or a served request runs under, the :class:`RunOutcome` it ends
in, and the architecture order and labels every table uses.  Importing
this module loads no accelerator, simulator or NumPy, so a process that
only routes work (``repro serve``) or parses arguments does not pay for
the experiment suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError

#: Canonical architecture order used across all experiments.
ARCH_ORDER = ("systolic", "mapping2d", "tiling", "flexflow")

#: Display names matching the paper's figures.
ARCH_LABELS = {
    "systolic": "Systolic",
    "mapping2d": "2D-Mapping",
    "tiling": "Tiling",
    "flexflow": "FlexFlow",
    "pipeline": "Pipelined-Systolic",
}


@dataclass(frozen=True)
class ExperimentResult:
    """A regenerated table/figure: identifier, rows, and notes."""

    experiment_id: str
    title: str
    rows: List[Dict[str, Any]]
    notes: str = ""

    def columns(self) -> List[str]:
        if not self.rows:
            return []
        # Preserve the first row's key order; later rows may add none.
        return list(self.rows[0].keys())

    def format_table(self, float_digits: int = 3) -> str:
        """Render rows as an aligned text table (the bench output)."""
        columns = self.columns()
        if not columns:
            return f"{self.experiment_id}: (no rows)"

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.{float_digits}f}"
            return str(value)

        cells = [[fmt(row.get(col, "")) for col in columns] for row in self.rows]
        widths = [
            max(len(col), *(len(row[idx]) for row in cells))
            for idx, col in enumerate(columns)
        ]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
        divider = "  ".join("-" * widths[i] for i in range(len(columns)))
        body = "\n".join(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(columns)))
            for row in cells
        )
        lines = [f"== {self.experiment_id}: {self.title} ==", header, divider, body]
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """ExperimentResult as a JSON-compatible dict."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "rows": result.rows,
        "notes": result.notes,
    }


def result_from_dict(data: Dict[str, Any]) -> ExperimentResult:
    """Rebuild an ExperimentResult from its JSON dict."""
    return ExperimentResult(
        experiment_id=data["experiment_id"],
        title=data["title"],
        rows=list(data["rows"]),
        notes=data.get("notes", ""),
    )


@dataclass(frozen=True)
class RunPolicy:
    """How :func:`~repro.experiments.runner.run_resilient` (and the serve
    worker pool) supervise jobs.

    Args:
        timeout_s: per-attempt wall-clock limit (``None`` = unlimited).
        retries: extra attempts after a failed/timed-out first attempt.
        backoff_s: delay before retry ``k`` is ``backoff_s * 2**(k-1)``,
            capped at ``max_backoff_s``.
        max_backoff_s: ceiling on any single retry delay, so a high retry
            count cannot schedule multi-minute sleeps.
    """

    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.5
    max_backoff_s: float = 30.0

    def __post_init__(self) -> None:
        # `nan <= 0` is False, so a bare sign check lets NaN through; a
        # NaN or infinite timeout or backoff would then supervise a hung
        # job forever.
        if self.timeout_s is not None and not (
            math.isfinite(self.timeout_s) and self.timeout_s > 0
        ):
            raise ConfigurationError(
                f"timeout_s must be positive and finite, got {self.timeout_s}"
            )
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if not (math.isfinite(self.backoff_s) and self.backoff_s >= 0):
            raise ConfigurationError(
                f"backoff_s must be >= 0 and finite, got {self.backoff_s}"
            )
        if not (math.isfinite(self.max_backoff_s) and self.max_backoff_s > 0):
            raise ConfigurationError(
                "max_backoff_s must be positive and finite,"
                f" got {self.max_backoff_s}"
            )

    def retry_delay(self, attempt: int) -> float:
        """Delay before the retry that follows failed attempt ``attempt``.

        Exponential from ``backoff_s``, but never above ``max_backoff_s``
        — the worker pool schedules every retry (served requests and
        experiment batches alike) through here.
        """
        return min(self.backoff_s * (2 ** (attempt - 1)), self.max_backoff_s)


@dataclass(frozen=True)
class RunOutcome:
    """What happened to one job across all of its attempts.

    For an experiment, ``result`` is its :class:`ExperimentResult`,
    whether it ran or was read back from the result store; the worker
    pool reports any job this way, with the request label as
    ``experiment_id`` and the worker entry's return value as ``result``.
    """

    experiment_id: str
    status: str  # "ok" | "failed" | "timeout"
    result: Any = None
    error: str = ""
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"
