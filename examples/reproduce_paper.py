#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation section.

Runs the full experiment suite (Figure 1, Tables 3/4/6/7, Figures 15-19,
the Section 6.2.1 area table, and the Section 6.2.5 interconnect study)
and prints each in paper-row format.  This is the one-shot reproduction
entry point; ``repro experiment <id>`` regenerates one artifact and
``repro profile <id>`` times it under the span tracer.

Usage::

    python examples/reproduce_paper.py [experiment_id ...]

With no arguments, all experiments run in the paper's order.
"""

import sys

from repro.experiments import ALL_EXPERIMENTS, run_experiment


def main() -> None:
    requested = sys.argv[1:] or list(ALL_EXPERIMENTS)
    unknown = [eid for eid in requested if eid not in ALL_EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiment ids {unknown}; known: {', '.join(ALL_EXPERIMENTS)}"
        )
    for eid in requested:
        result = run_experiment(eid)
        print(result.format_table())
        print()


if __name__ == "__main__":
    main()
