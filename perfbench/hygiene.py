"""End-of-run process hygiene: no child, listening socket or thread left.

Reads only this process's own entries under ``/proc``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List


def live_children() -> List[int]:
    """PIDs whose parent is this process (zombies included)."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name is parenthesised and may contain spaces.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def listening_sockets() -> List[str]:
    """``host:port`` (hex, as the kernel lists it) of TCP sockets this
    process holds in the LISTEN state."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    found = []
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            with open(table, encoding="utf-8") as handle:
                rows = handle.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if cols[3] == "0A" and cols[9] in inodes:
                found.append(cols[1])
    return found


def other_threads() -> List[str]:
    main = threading.main_thread()
    return [t.name for t in threading.enumerate() if t is not main and t.is_alive()]


def leftovers(grace_s: float = 5.0) -> List[str]:
    """Everything still running that this run started; waits up to
    ``grace_s`` for threads and sockets that are shutting down."""
    deadline = time.monotonic() + grace_s
    while True:
        problems = (
            [f"child process {pid}" for pid in live_children()]
            + [f"listening socket {addr}" for addr in listening_sockets()]
            + [f"thread {name!r}" for name in other_threads()]
        )
        if not problems or time.monotonic() >= deadline:
            return problems
        time.sleep(0.05)
