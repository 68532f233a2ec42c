"""Helpers shared by run.py, the session worker and the layer probes.

Measured processes are started by a small launcher process rather than by
run.py itself: Linux carries a process's peak RSS across fork and exec, so a
job forked from run.py (which grows while it parses large outputs) would
report run.py's peak as its own ``ru_maxrss``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PY = sys.executable


# Speed references (see "Host speed" in README.md); both run stdlib code only.
# A CLI job's time is taken to the host speed at which a fresh process running
# REF_SPAWN_CODE, spawned just before each job, takes REF_SPAWN_S. A library
# call's time is taken to the speed at which `calibrate_ms`, timed between
# blocks of calls in the same process, takes REF_CAL_MS.
REF_SPAWN_CODE = ("import math\nacc = 0.0\nfor i in range(60000):\n"
                  "    acc += math.sin(i * 1e-3) * (i % 7) + abs(complex(i * 1e-3, 1.0))\n")
REF_SPAWN_S = 0.1
CAL_ITERATIONS = 6000
REF_CAL_MS = 2.5


def calibrate_ms() -> float:
    """Wall ms of a fixed loop that runs no coaxmode code."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(CAL_ITERATIONS):
        x = i * 1e-3
        acc += math.sin(x) * (i % 7) + abs(complex(x, 1.0))
        table[i & 63] = acc
    return (time.perf_counter() - start) * 1e3


class SpeedLog:
    """Speed reference samples in time order.

    ``factor(pos)`` turns a time measured next to sample ``pos`` into a time
    at the reference speed: ``nominal`` over the median of the samples within
    ``half`` places of it. The window follows the host's speed states, and
    its median ignores one-off stalls of single samples.
    """

    def __init__(self, half: int, nominal: float):
        self.half = half
        self.nominal = nominal
        self.samples: list[float] = []

    def add(self, value: float | None) -> int:
        """Append a sample (None is skipped); the position it takes."""
        if value is not None:
            self.samples.append(value)
        return len(self.samples) - (value is not None)

    def factor(self, pos: int) -> float:
        window = self.samples[max(0, pos - self.half):pos + self.half + 1]
        return self.nominal / statistics.median(window) if window else 1.0

    def median(self) -> float:
        return statistics.median(self.samples) if self.samples else float("nan")


class Fatal(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


def _job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _job_env()


def spawn(argv: list[str], stdout_path: str, timeout: float) -> dict:
    """Run one process to completion: wall time, exit code, ru_maxrss (KiB).

    stdout goes to ``stdout_path`` (stderr next to it), so a large output
    never blocks on a pipe. A process still running after ``timeout``
    seconds is killed and reported as timed out.
    """
    lock = threading.Lock()
    state = {"reaped": False, "timed_out": False}
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)

        def kill():
            with lock:
                if not state["reaped"]:
                    state["timed_out"] = True
                    proc.kill()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                state["reaped"] = True
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss,
            "timed_out": state["timed_out"]}


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def last_json(path: str) -> dict:
    lines = read_text(path).strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


class Launcher:
    """A long-lived helper that runs ``spawn`` on request, one job at a time.

    With ``reference=True`` it first spawns the reference process
    (REF_SPAWN_CODE) and reports its wall time as ``ref_s``.
    """

    def __init__(self):
        self._proc = subprocess.Popen([PY, os.path.abspath(__file__)], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def run(self, argv: list[str], stdout_path: str, timeout: float,
            reference: bool = False) -> dict:
        self._proc.stdin.write(json.dumps([argv, stdout_path, timeout, reference]) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise Fatal("the job launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve() -> None:
    for line in sys.stdin:
        argv, stdout_path, timeout, reference = json.loads(line)
        ref_s = None
        if reference:
            ref = spawn([PY, "-c", REF_SPAWN_CODE], stdout_path + ".ref", 30.0)
            ref_s = ref["wall"] if ref["rc"] == 0 and not ref["timed_out"] else None
        res = spawn(argv, stdout_path, timeout)
        res["ref_s"] = ref_s
        print(json.dumps(res), flush=True)


if __name__ == "__main__":
    _serve()
