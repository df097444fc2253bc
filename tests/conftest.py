import os
import signal
import sys
import time

import pytest
import ray
from ray.data import DataContext

REAP_TIMEOUT_S = 15.0


def _descendants(pid: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


def reap_descendants(timeout_s: float = REAP_TIMEOUT_S) -> list[str]:
    """Wait up to ``timeout_s`` for every descendant of this process to
    exit, then SIGKILL the rest; returns the killed command lines."""
    deadline = time.monotonic() + timeout_s
    alive = [p for p in _descendants(os.getpid()) if _alive(p)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = [p for p in _descendants(os.getpid()) if _alive(p)]
    killed = []
    for p in alive:
        killed.append(f"{p}: {_cmdline(p)}")
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    return killed


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()
    for line in reap_descendants():
        # past pytest's output capture: teardown output is otherwise hidden
        print(f"conftest: killed leftover process {line}", file=sys.__stderr__)
