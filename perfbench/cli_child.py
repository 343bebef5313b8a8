"""Run one hermite-counts command with every layer boundary traced.

    python cli_child.py SPANS_PATH COMMAND [ARGS...]

Behaves like ``python -m hermite_counts COMMAND [ARGS...]`` and writes the
spans it recorded to SPANS_PATH (numpy .npz) when the command returns.
"""

import sys

import tracer

rec = tracer.Recorder()
tracer.install(rec)
from hermite_counts import cli  # noqa: E402  (imported after install, as any caller would be)

try:
    code = cli.main(sys.argv[2:])
finally:
    rec.save(sys.argv[1])
sys.exit(code)
