"""Run commands on request and report each one's time, exit code, output and peak RSS.

Reads one JSON list of arguments per line on stdin, runs the command to
completion from the repository root, with `src` first on PYTHONPATH, and
writes one JSON object per line on stdout.  The peak resident size comes
from `os.wait4`.  Linux carries a parent's high-water mark into a child it
spawns, so this process stays small and imports nothing heavy: the figure it
reports is the child's own, not that of the benchmark process holding the
test inputs.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 150.0


def run(argv: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(TIMEOUT_S, proc.kill)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer.start()
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": seconds,
        "code": proc.returncode,
        "out": out.decode(),
        "err": b"".join(err).decode(),
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
