"""The server under test and the one-connection closed-loop load generator.

The server is a real ``python -m repro serve`` child process.  Everything
the benchmark learns about it comes from outside: its stdout banner, the
``stats`` op, ``GET /metrics``, ``/proc/<pid>`` and its ledger file.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from collections import deque

from repro.serve.protocol import MAX_RESPONSE_LINE_BYTES

#: Seconds to wait for a server to print its listening banner.
START_TIMEOUT_S = 60.0
#: Seconds to wait for one response before the rest count as missing.
READ_TIMEOUT_S = 30.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """One ``repro serve`` child, started on ephemeral ports.

    Args:
        src_dir: Directory holding the ``repro`` package.
        stderr_path: File the server's stderr is kept in.
        n_shards: ``--shards``.
        cache_size: ``--cache-size``.
        ledger_path: ``--ledger`` (with ``--prime``) when given.
    """

    def __init__(
        self,
        src_dir: str,
        stderr_path: str,
        n_shards: int,
        cache_size: int,
        ledger_path: str | None = None,
    ) -> None:
        self.src_dir = src_dir
        self.stderr_path = stderr_path
        self.argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--metrics-port",
            "0",
            "--shards",
            str(n_shards),
            "--cache-size",
            str(cache_size),
        ]
        if ledger_path is not None:
            self.argv += ["--ledger", ledger_path, "--prime"]
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.metrics_address: tuple[str, int] | None = None
        self.banner: list[str] = []
        self.setup_s = 0.0

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def start(self) -> float:
        """Spawn the server; return seconds until it is listening."""
        env = dict(os.environ, PYTHONPATH=self.src_dir, PYTHONUNBUFFERED="1")
        started = time.perf_counter()
        with open(self.stderr_path, "ab") as stderr:
            self.process = subprocess.Popen(
                self.argv,
                stdout=subprocess.PIPE,
                stderr=stderr,
                stdin=subprocess.DEVNULL,
                env=env,
                bufsize=0,  # unbuffered: select() must see every banner line
            )
        line = self._read_banner_line(started)
        self.setup_s = time.perf_counter() - started
        host, _, port = line.rsplit(" ", 1)[1].rpartition(":")
        self.address = (host, int(port))
        metrics = self._read_banner_line(started)
        host, _, rest = metrics.rsplit("//", 1)[1].rpartition(":")
        self.metrics_address = (host, int(rest.split("/", 1)[0]))
        self.banner.append(self._read_banner_line(started))
        return self.setup_s

    def _read_banner_line(self, started: float) -> str:
        assert self.process is not None and self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            remaining = START_TIMEOUT_S - (time.perf_counter() - started)
            if remaining <= 0 or not selector.select(remaining):
                raise RuntimeError("server did not start in time")
        line = self.process.stdout.readline().decode("utf-8", "replace")
        if not line:
            raise RuntimeError(
                f"server exited during start (code {self.process.wait()})"
            )
        self.banner.append(line.rstrip("\n"))
        return line.rstrip("\n")

    def cpu_seconds(self) -> float:
        """User + system CPU the server has used so far."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int | None:
        """SIGTERM, wait, and kill if it will not go; returns the exit code."""
        process = self.process
        if process is None:
            return None
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        if process.stdout is not None:
            rest = process.stdout.read().decode("utf-8", "replace")
            self.banner.extend(rest.splitlines())
            process.stdout.close()
        return process.returncode


def fresh_copy(path: str, directory: str, name: str) -> str:
    """Copy a ledger so a server run never writes the cached original."""
    target = os.path.join(directory, name)
    shutil.copyfile(path, target)
    return target


class Connection:
    """One blocking NDJSON socket and its line reader."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=READ_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def read_line(self) -> bytes:
        return self.reader.readline(MAX_RESPONSE_LINE_BYTES + 1)

    def stats(self) -> dict:
        """The server's ``stats`` op payload."""
        self.sock.sendall(b'{"op":"stats"}\n')
        return json.loads(self.read_line())["stats"]

    def close(self) -> None:
        """Close the reader, then the socket."""
        try:
            self.reader.close()
        finally:
            self.sock.close()


class LoopResult:
    """What one closed-loop phase saw."""

    def __init__(self) -> None:
        self.round_trips: list[float] = []
        self.finished: list[float] = []
        self.slots: list[int] = []
        self.started = 0.0
        self.attempted = 0
        self.failed = 0
        self.sent = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.first_failure: str | None = None

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if self.first_failure is None:
            self.first_failure = reason


def closed_loop(
    conn: Connection,
    requests: list[bytes],
    expected: list[bytes],
    depth: int,
    seconds: float | None = None,
    count: int | None = None,
) -> LoopResult:
    """Keep ``depth`` requests in flight, cycling through ``requests``.

    New requests are sent for ``seconds`` of wall time, or, when
    ``seconds`` is ``None``, until ``count`` have been sent.  Then every
    outstanding response is read.  A response fails when it is not
    byte-identical to the expected line of the request at the head of
    the FIFO (which also catches a reordering or an error answer); when
    the connection breaks, every request still outstanding fails as
    missing.
    """
    result = LoopResult()
    pending: deque[tuple[int, float]] = deque()
    width = len(requests)
    send = conn.sock.sendall
    read = conn.read_line
    now = time.perf_counter
    cpu_started = time.process_time()
    started = result.started = now()
    end = started + seconds if seconds is not None else float("inf")
    limit = count if seconds is None else float("inf")
    index = 0
    broken = False
    while True:
        while len(pending) < depth and not broken:
            if index >= limit or now() >= end:
                break
            slot = index % width
            try:
                send(requests[slot])
            except OSError as exc:
                broken = True
                result.attempted += 1
                result.fail(1, f"send failed: {exc}")
                break
            pending.append((slot, now()))
            index += 1
        if not pending:
            break
        slot, sent_at = pending.popleft()
        try:
            line = read()
        except OSError as exc:
            line = b""
            reason = f"read failed: {exc}"
        else:
            reason = "connection closed"
        result.attempted += 1
        if not line:
            result.attempted += len(pending)
            result.fail(1 + len(pending), f"missing response: {reason}")
            pending.clear()
            broken = True
            continue
        finished = now()
        result.round_trips.append(finished - sent_at)
        result.finished.append(finished)
        result.slots.append(slot)
        if line != expected[slot]:
            result.fail(1, f"request {slot}: response differs from expected")
    result.wall_s = now() - started
    result.cpu_s = time.process_time() - cpu_started
    result.sent = index
    return result


def scrape_metrics(address: tuple[str, int]) -> str:
    """The Prometheus text the server serves at ``/metrics``."""
    host, port = address
    with urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=READ_TIMEOUT_S
    ) as response:
        return response.read().decode("utf-8")


def histogram_buckets(text: str, name: str) -> list[tuple[float, int]]:
    """``(upper bound, cumulative count)`` pairs of one histogram."""
    prefix = f'{name}_bucket{{le="'
    buckets = []
    for line in text.splitlines():
        if line.startswith(prefix):
            bound, _, value = line[len(prefix) :].partition('"}')
            buckets.append((float(bound), int(float(value))))
    if not buckets:
        raise RuntimeError(f"/metrics has no {name} histogram")
    return buckets


def bucket_quantile(
    before: list[tuple[float, int]],
    after: list[tuple[float, int]],
    q: float,
) -> float:
    """The ``q``-quantile of the observations made between two scrapes.

    Linear interpolation inside the bucket holding the target rank, with
    the bucket below's bound as the lower edge (0 for the first bucket).
    """
    counts = [
        (bound, late - early)
        for (bound, early), (_, late) in zip(before, after)
    ]
    total = counts[-1][1] if counts else 0
    if total <= 0:
        raise RuntimeError("no observations between the two scrapes")
    target = q * total
    lower, below = 0.0, 0
    for bound, cumulative in counts:
        if cumulative >= target:
            if bound == float("inf"):
                return lower
            inside = cumulative - below
            return lower + (bound - lower) * (target - below) / inside
        lower, below = bound, cumulative
    return lower
