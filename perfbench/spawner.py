"""Run commands on request; report each one's wall time, exit code and own peak RSS.

    python spawner.py        (driven through the Spawner class below)

Linux records the peak RSS of the address space a process had before exec
in the ru_maxrss that wait4 returns, so a child spawned by the benchmark
would report the benchmark's own peak (numpy, the inputs) whenever that is
the larger.  Children are therefore spawned from this small process, whose
peak is below any hermite-counts child's.  One JSON request per stdin line:
{"argv", "cwd", "stdout", "stderr"}; one JSON reply per stdout line:
{"seconds", "code", "peak_rss_mb"}.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path


class Spawner:
    """Client side: starts the spawner process and sends it commands, one at a time."""

    def __init__(self, env: dict[str, str]) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: list[str], cwd: Path, stdout: Path, stderr: Path) -> tuple[float, int, float]:
        """Run argv to completion; (wall seconds, exit code, peak RSS in MB)."""
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(stdout), "stderr": str(stderr)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner process exited")
        reply = json.loads(reply)
        return reply["seconds"], reply["code"], reply["peak_rss_mb"]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    serve()
