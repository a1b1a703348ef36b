"""Run ``python -m repro`` commands as measured subprocesses.

Each command runs in its own session (process group), so its pool workers
can be found and stopped afterwards.  ``os.wait4`` gives the command's
peak RSS, which on Linux includes every descendant the command waited
for -- pool workers included.

Shared hosts change speed by tens of percent over a minute or more, longer
than a run can average out.  So the workloads interleave :data:`PROBE`, a
fixed import of the program's dependencies that runs no program code, and
:func:`rescale` sets each command's :attr:`Completed.speed` from the
probes just before and after it.  No change to the program moves a probe,
so a change moves :attr:`Completed.ref_s` as it moves the wall time.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SHM = pathlib.Path("/dev/shm")

#: A command that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 120.0
#: How long a command's leftover processes and shm segments may take to go.
GRACE_S = 2.0
#: The host-speed probe (arguments to ``python``).
PROBE = ("-c", "import numpy, scipy.sparse.csgraph, networkx")
#: Seconds :data:`PROBE` takes at the reference speed: its median on the
#: 2-core host the benchmark was written on.
PROBE_REF_S = 0.69


@dataclass
class Completed:
    """One finished command and what it cost."""

    label: str
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float
    #: Processes of the command's group still alive after the grace period.
    leftover_procs: int
    #: ``/dev/shm`` entries the command created and did not remove.
    leaked_shm: List[str]
    #: Reference speed over host speed while the command ran (see rescale).
    speed: float = 1.0

    @property
    def ref_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s * self.speed


def python_env() -> dict:
    """Environment for child interpreters: the checkout's sources, and
    temporary files kept inside the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))


def _shm_entries() -> set:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def _group_members(pgid: int) -> List[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # fields after the parenthesised command name: state ppid pgrp ...
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 2 and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop_group(pgid: int) -> int:
    """Wait out the grace period, then kill what is left of the group.

    Returns how many processes were still alive after the grace period.
    Every one of them is gone when this returns.
    """
    deadline = time.monotonic() + GRACE_S
    members = _group_members(pgid)
    while members and time.monotonic() < deadline:
        time.sleep(0.05)
        members = _group_members(pgid)
    leftovers = len(members)
    while members:
        _kill_group(pgid)
        time.sleep(0.05)
        members = _group_members(pgid)
    return leftovers


def _leaked_shm(before: set) -> List[str]:
    deadline = time.monotonic() + GRACE_S
    new = _shm_entries() - before
    while new and time.monotonic() < deadline:
        time.sleep(0.05)
        new = _shm_entries() - before
    return sorted(new)


def run_python(
    argv: Sequence[str],
    cwd: pathlib.Path,
    label: str,
    timeout: float = COMMAND_TIMEOUT_S,
) -> Completed:
    """Run ``python <argv>`` in ``cwd`` and measure it from outside."""
    cwd.mkdir(parents=True, exist_ok=True)
    out_path = cwd / f"{label}.out"
    err_path = cwd / f"{label}.err"
    shm_before = _shm_entries()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=cwd,
            env=python_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    leftovers = _stop_group(proc.pid)
    return Completed(
        label=label,
        returncode=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        wall_s=wall,
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        leftover_procs=leftovers,
        leaked_shm=_leaked_shm(shm_before),
    )


def rescale(timeline: Sequence[Tuple[bool, Completed]]) -> None:
    """Set ``speed`` of every command in ``timeline`` -- ``(is_probe,
    command)`` pairs in the order they ran, starting and ending with a
    probe -- from the mean of the probes around it."""
    probes = [index for index, (is_probe, _) in enumerate(timeline) if is_probe]
    for index, (is_probe, done) in enumerate(timeline):
        if is_probe:
            continue
        before = max(p for p in probes if p < index)
        after = min(p for p in probes if p > index)
        host_s = (timeline[before][1].wall_s + timeline[after][1].wall_s) / 2
        done.speed = PROBE_REF_S / host_s


def run_repro(
    args: Sequence[str], cwd: pathlib.Path, label: str
) -> Completed:
    """Run one real ``python -m repro ...`` command."""
    return run_python(["-m", "repro", *args], cwd, label)


def exit_problem(done: Completed) -> Optional[str]:
    """A one-line reason when the command itself failed, else ``None``."""
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"{done.label}: exit {done.returncode}: {tail[0]}"
    return None
