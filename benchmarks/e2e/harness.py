"""Process, socket and ``/proc`` plumbing of the end-to-end benchmark.

Everything here treats the program as a black box: the CLI is run as a
subprocess in its own process group, spoken to over a plain blocking
socket (the benchmark does not borrow the program's own HTTP client),
and observed through ``/proc``. Nothing in this module imports
``repro``.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import platform
import re
import select
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"

#: A phase (build, spawn, one window, one batch cycle, shutdown) that
#: takes longer than this counts as failed operations, not as a hang.
PHASE_TIMEOUT_S = 60.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PORT_LINE = re.compile(r"serving on http://[\d.]+:(\d+)")


class PhaseTimeout(RuntimeError):
    """A benchmark phase exceeded :data:`PHASE_TIMEOUT_S`."""


# ----------------------------------------------------------------------
# who runs where
# ----------------------------------------------------------------------
# The program (build, server, shard workers) is confined to one core;
# the client has the other and joins the server's core for latency
# windows. With one caller in a closed loop only one thread is runnable
# at a time, so a second core adds nothing but cross-core wake-ups, and
# where the scheduler last left each thread (together: 0.33 ms a hit;
# apart: 0.45-0.60 ms, sticky for minutes after any two-core load) was
# the largest run-to-run difference measured on this box.
_ALLOWED = sorted(os.sched_getaffinity(0))
CLIENT_CPU = _ALLOWED[0]
SERVER_CPU = _ALLOWED[-1]


@contextlib.contextmanager
def on_cpu(cpu: int):
    """Confine the calling thread (and what it spawns meanwhile) to
    ``cpu``; the previous affinity comes back on exit."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def program_env() -> Dict[str, str]:
    """Environment of every program subprocess: the checkout's source
    on the path and a fixed hash seed, so dict and set orders (and the
    stratum-hash sharding) repeat from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(args: Sequence[str], cwd: pathlib.Path) -> float:
    """Run ``python -m repro.cli <args>`` to completion; returns its
    wall seconds. Raises on a non-zero exit or a timeout."""
    started = time.perf_counter()
    try:
        with on_cpu(SERVER_CPU):
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", *args],
                cwd=cwd, env=program_env(), capture_output=True, text=True,
                timeout=PHASE_TIMEOUT_S,
            )
    except subprocess.TimeoutExpired as exc:
        raise PhaseTimeout(f"repro.cli {args[0]} {args[1]}") from exc
    if done.returncode != 0:
        raise RuntimeError(
            f"repro.cli {' '.join(args)} exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# the served program
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``warehouse serve --http --port 0`` lifetime.

    The server leads its own process group, so its shard workers (spawn
    children) die with it on every exit path: :meth:`stop` interrupts
    the leader for a graceful drain, then kills the whole group.
    """

    def __init__(self, serve_args: Sequence[str], cwd: pathlib.Path):
        self.spawned_at = time.perf_counter()
        with on_cpu(SERVER_CPU):  # inherited by the server and its workers
            self._proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "warehouse", "serve",
                    "--http", "--port", "0", *serve_args,
                ],
                cwd=cwd, env=program_env(), stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, start_new_session=True,
            )
        self.pid = self._proc.pid
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + PHASE_TIMEOUT_S
        pending = b""
        fd = self._proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.25)
            if not ready:
                if self._proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            pending += chunk
            match = _PORT_LINE.search(pending.decode("utf-8", "replace"))
            if match:
                return int(match.group(1))
        if self._proc.poll() is not None:
            raise RuntimeError(
                f"server exited {self._proc.returncode} before listening"
            )
        raise PhaseTimeout("server did not start listening")

    def pids(self) -> List[int]:
        """The server and every live descendant (its shard workers)."""
        children: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    fields = handle.read().rsplit(b") ", 1)[1].split()
            except (OSError, IndexError):
                continue
            children.setdefault(int(fields[1]), []).append(int(entry))
        found, frontier = [], [self.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            frontier.extend(children.get(pid, ()))
        return found

    def stop(self) -> None:
        """Graceful interrupt, then kill the group and reap the leader."""
        if self._proc.poll() is None:
            try:
                os.killpg(self.pid, signal.SIGINT)
                self._proc.wait(timeout=5.0)
            except (ProcessLookupError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self._proc.wait(timeout=PHASE_TIMEOUT_S)
        finally:
            if self._proc.stdout is not None:
                self._proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def cpu_seconds(pids: Sequence[int]) -> float:
    """CPU seconds consumed so far by the live threads of ``pids``:
    the scheduler's nanosecond run time per thread where the kernel
    exposes it (``schedstat``), the 10 ms ``utime + stime`` ticks
    otherwise."""
    total = 0.0
    for pid in pids:
        try:
            nanos = 0
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/schedstat", "rb") as handle:
                    nanos += int(handle.read().split()[0])
            total += nanos / 1e9
        except (OSError, IndexError, ValueError):
            try:
                with open(f"/proc/{pid}/stat", "rb") as handle:
                    fields = handle.read().rsplit(b") ", 1)[1].split()
                total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
            except (OSError, IndexError):
                continue
    return total


def peak_rss_mib(pids: Sequence[int]) -> float:
    """Sum of the peak resident sets (``VmHWM``) of ``pids`` in MiB."""
    kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except OSError:
            continue
    return kib / 1024.0


def context_switches(pids: Sequence[int]) -> int:
    """Voluntary + involuntary context switches of every thread of
    ``pids`` (``/proc/<pid>/status`` counts the main thread only)."""
    total = 0
    for pid in pids:
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/status", "r") as handle:
                    for line in handle:
                        if "ctxt_switches" in line:
                            total += int(line.split(":")[1])
            except OSError:
                continue
    return total


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
_HEAD_END = b"\r\n\r\n"
_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)


def encode_request(method: str, path: str, body: Optional[Dict] = None) -> bytes:
    """One HTTP/1.1 keep-alive request as wire bytes (encoded before
    the timed windows, so the windows time the server, not ``json``)."""
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode("latin-1")
    return head + payload


class Connection:
    """A blocking keep-alive connection: one request at a time, the
    caller waits for the reply (a closed loop)."""

    def __init__(self, port: int, timeout: float = PHASE_TIMEOUT_S):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def exchange(self, wire: bytes) -> Tuple[int, bytes]:
        """Send pre-encoded ``wire``; returns ``(status, body bytes)``."""
        self._sock.sendall(wire)
        buffer = self._sock.recv(65536)
        while _HEAD_END not in buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionResetError("server closed the connection")
            buffer += chunk
        head, _, body = buffer.partition(_HEAD_END)
        length = int(_LENGTH.search(head).group(1))
        while len(body) < length:
            chunk = self._sock.recv(length - len(body))
            if not chunk:
                raise ConnectionResetError("server closed mid-response")
            body += chunk
        return int(head[9:12]), body

    def json(self, method: str, path: str, body: Optional[Dict] = None):
        status, raw = self.exchange(encode_request(method, path, body))
        if raw[:1] in (b"{", b"["):
            return status, json.loads(raw)
        return status, raw.decode("utf-8")

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# validity of the run
# ----------------------------------------------------------------------
def canary_ms() -> float:
    """The fastest of three rounds of a fixed numpy sort plus a Python
    loop (~100 ms in all on an idle core). It does the same work every
    time, so a slow canary means the box was disturbed for the whole
    100 ms, not that the program changed or that a blip passed."""
    import numpy as np

    data = np.random.default_rng(12345).random(750_000)
    rounds = []
    for _ in range(3):
        started = time.perf_counter()
        np.sort(data)
        total = 0
        for i in range(750_000):
            total += i & 7
        rounds.append((time.perf_counter() - started) * 1000.0)
    return min(rounds)


def fingerprint(seed: int) -> Dict:
    """Where and on what the numbers were taken."""
    import numpy as np

    sha = "unknown"
    try:
        head = (REPO_ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            sha = (REPO_ROOT / ".git" / head[5:]).read_text().strip()
        else:
            sha = head
    except OSError:
        pass  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
        "git_sha": sha,
        "seed": seed,
    }


def tree_bytes(root: pathlib.Path) -> int:
    """Bytes of every regular file under ``root``."""
    return sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )
