"""Layer wrappers for a traced ``repro serve`` process.

Python imports ``sitecustomize`` at start-up from ``sys.path``.  The
serve-mix workload puts this directory on ``PYTHONPATH`` of a traced
server, with ``PERFBENCH_SPANS`` naming the output file.  The server
then runs unchanged, with every layer wrapped (``tracing.install``); at
exit it writes the span summary (JSON) and the spans (JSON lines).  The
variable is removed from the environment here, so spawned pool workers
run without wrappers.
"""

import os

_OUT = os.environ.pop("PERFBENCH_SPANS", None)

if _OUT:
    import atexit
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    import tracing

    _LOG = tracing.SpanLog()
    tracing.install(_LOG, serve=True)

    def _write() -> None:
        Path(_OUT).write_text(json.dumps(tracing.summarize(_LOG)))
        tracing.dump(_LOG, _OUT + ".spans.jsonl")

    atexit.register(_write)
