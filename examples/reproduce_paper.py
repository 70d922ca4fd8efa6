#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation section.

Runs the full experiment suite (Figure 1, Tables 3/4/6/7, Figures 15-19,
the Section 6.2.1 area table, and the Section 6.2.5 interconnect study)
and prints each in paper-row format.  This is the one-shot reproduction
entry point; ``repro experiment <id>`` regenerates one artifact and
``repro profile <id>`` times it under the span tracer.

Usage::

    python examples/reproduce_paper.py [experiment_id ...]

With no arguments, all experiments run in the paper's order.  An unknown
or repeated id stops the run before any experiment starts.
"""

import sys

from repro.errors import ConfigurationError
from repro.experiments import ALL_EXPERIMENTS, run_batch


def main() -> None:
    requested = sys.argv[1:] or list(ALL_EXPERIMENTS)
    try:
        results = run_batch(requested)
    except ConfigurationError as exc:  # an unknown or repeated id
        raise SystemExit(f"error: {exc}") from None
    for result in results:
        print(result.format_table())
        print()


if __name__ == "__main__":
    main()
