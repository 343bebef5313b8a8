"""Run one hermite-counts command with host-speed calibration samples taken inside it.

    python cli_timed.py SAMPLES_PATH COMMAND [ARGS...]

Behaves like ``python -m hermite_counts COMMAND [ARGS...]`` while a
hostspeed timer samples the vCPU's speed every PERIOD_S, and writes the
samples to SAMPLES_PATH (JSON) when the command returns.
"""

import sys

import hostspeed

clock = hostspeed.HostClock(first_block=0)
try:
    with clock.ticking():
        from hermite_counts import cli

        code = cli.main(sys.argv[2:])
finally:
    clock.dump(sys.argv[1])
sys.exit(code)
