"""The daemon under test and the closed-loop client that drives it.

:class:`Daemon` boots ``repro serve`` as its own process tree, reads its
peak memory from ``/proc`` and stops every process of the tree.
:func:`closed_loop` replays pre-encoded request lines on one connection
and keeps each raw reply for checking after the clock stops.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

Address = Tuple[str, int]

_LISTENING = re.compile(r"listening on ([^\s:]+):(\d+)")


def _children(pid: int) -> List[int]:
    """Direct children of every thread of ``pid``.

    Fleet workers are forked from the router's loop thread, not its main
    thread, so every task's ``children`` file must be read.
    """
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{task}/children").read_text()
        except OSError:
            continue
        found.extend(int(child) for child in text.split())
    return found


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        if current in tree:
            continue
        tree.append(current)
        frontier.extend(_children(current))
    return tree


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return not re.search(r"^State:\s+Z", status, re.MULTILINE)


class Daemon:
    """One ``repro serve`` process tree (``workers >= 2`` boots the fleet)."""

    def __init__(self, root: Path, workdir: Path, workers: int = 1):
        self._root = root
        self._workdir = workdir
        self._workers = workers
        self._process: Optional[subprocess.Popen] = None
        self._log: Optional[Path] = None
        self._tree: Set[int] = set()
        self.address: Address = ("127.0.0.1", 0)

    def start(self, timeout: float = 120.0) -> Address:
        """Boot the daemon and wait until it accepts connections."""
        self._workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self._root / "src")
        command = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"]
        if self._workers >= 2:
            command += ["--workers", str(self._workers)]
        self._log = self._workdir / f"daemon-{os.getpid()}-{time.monotonic_ns()}.log"
        with open(self._log, "wb") as log:
            self._process = subprocess.Popen(
                command, cwd=self._root, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self._log.read_text(errors="replace"))
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return self.address
            if self._process.poll() is not None:
                break
            time.sleep(0.005)
        tail = self._log.read_text(errors="replace")[-2000:]
        self.stop()
        raise RuntimeError(f"the daemon did not start:\n{tail}")

    def peak_rss_mb(self) -> float:
        """Peak RSS summed over the whole live process tree."""
        if self._process is None:
            return 0.0
        pids = process_tree(self._process.pid)
        self._tree.update(pids)
        return peak_rss_mb(pids)

    def stop(self) -> None:
        """Ask for a shutdown, then make sure every process of the tree ended."""
        process, self._process = self._process, None
        if process is None:
            return
        self._tree.update(process_tree(process.pid))
        if process.poll() is None:
            try:
                with Connection(self.address, timeout=10) as connection:
                    connection.roundtrip(b'{"op":"shutdown"}\n')
            except OSError:
                pass
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        deadline = time.monotonic() + 15
        leftovers = [pid for pid in self._tree if pid != process.pid]
        while time.monotonic() < deadline and any(map(_alive, leftovers)):
            time.sleep(0.02)
        for pid in leftovers:
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self._tree.clear()
        if self._log is not None:
            self._log.unlink(missing_ok=True)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class Connection:
    """One blocking JSON-lines connection."""

    def __init__(self, address: Address, timeout: float = 120.0):
        self._socket = socket.create_connection(address, timeout=timeout)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._socket.makefile("rb")

    def roundtrip(self, line: bytes) -> bytes:
        self._socket.sendall(line)
        reply = self._reader.readline()
        if not reply:
            raise ConnectionError("the daemon closed the connection")
        return reply

    def close(self) -> None:
        self._reader.close()
        self._socket.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def encode(document) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode("utf8") + b"\n"


def send_all(address: Address, lines: Sequence[bytes]) -> List[bytes]:
    """Send ``lines`` in order on one connection (set-up traffic)."""
    with Connection(address) as connection:
        return [connection.roundtrip(line) for line in lines]


#: One timed request: (latency in seconds, raw reply or ``None`` if lost).
Sample = Tuple[float, Optional[bytes]]


def closed_loop(address: Address, lines: Sequence[bytes]) -> Tuple[float, List[Sample]]:
    """Replay ``lines`` on one new connection, each request after the last reply.

    Returns the wall time from the first request to the last reply, and
    the latency and raw reply of every request.  A connection that fails
    loses the rest of the lines (``None`` replies).
    """
    samples: List[Sample] = []
    clock = time.perf_counter
    with Connection(address) as connection:
        started = clock()
        try:
            for line in lines:
                sent = clock()
                reply = connection.roundtrip(line)
                samples.append((clock() - sent, reply))
        except OSError:
            samples.extend((float("inf"), None) for _ in range(len(lines) - len(samples)))
        wall = clock() - started
    return wall, samples
