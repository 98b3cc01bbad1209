"""The benchmark's own HTTP/1.1 keep-alive client and server control.

A closed loop: each client sends its next request only after the
previous answer arrived, the way a QAOA driver waits for angles before
it launches its circuit. Requests are prebuilt bytes sent with one
``sendall``, so the client adds no write-write stall of its own.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

HOST = "127.0.0.1"
_PORT_LINE = re.compile(rb"serving on http://[^:\s]+:(\d+)")


class KeepAliveClient:
    """One persistent connection speaking just enough HTTP/1.1."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.port = port
        self.sock = socket.create_connection((HOST, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.sock.sendall(head + body)
        while b"\r\n\r\n" not in self._buffer:
            self._recv()
        header, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = header.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            rest += self._recv_chunk()
        self._buffer = rest[length:]
        return status, rest[:length]

    def _recv_chunk(self) -> bytes:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def _recv(self) -> None:
        self._buffer += self._recv_chunk()

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise ConnectionError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


# ---------------------------------------------------------------------------
# Closed-loop load
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    index: int  # pool position requested
    done: float  # perf_counter at completion
    latency_s: float
    status: Optional[int]  # None: connection error
    body: bytes


@dataclass
class LoadResult:
    samples: List[Sample] = field(default_factory=list)
    windows: List[Tuple[float, float]] = field(default_factory=list)


class ClosedLoop:
    """``clients`` keep-alive connections cycling through ``pool``.

    Pool positions are handed out from one shared counter, so no graph
    is requested twice before the whole pool has been sent once.
    """

    def __init__(self, port: int, pool: Sequence[bytes], clients: int):
        self.port = port
        self.pool = pool
        self.connections = [KeepAliveClient(port) for _ in range(clients)]
        self.result = LoadResult()
        self._next = 0
        self._lock = threading.Lock()

    def _take(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
        return index

    def _loop(self, slot: int, end: float, out: List[Sample]) -> None:
        conn = self.connections[slot]
        while True:
            start = time.perf_counter()
            if start >= end:
                return
            index = self._take()
            body = self.pool[index % len(self.pool)]
            try:
                status, answer = conn.request("POST", "/predict", body)
            except OSError:
                status, answer = None, b""
                conn.close()
                conn = self.connections[slot] = KeepAliveClient(self.port)
            done = time.perf_counter()
            out.append(Sample(index, done, done - start, status, answer))

    def send_all(self, bodies: Sequence[bytes]) -> List[int]:
        """Post every body once, split across the connections in
        parallel; returns the statuses (warm-up, not timed)."""
        statuses: List[int] = [0] * len(bodies)

        def send(slot: int) -> None:
            conn = self.connections[slot]
            for i in range(slot, len(bodies), len(self.connections)):
                statuses[i], _ = conn.request("POST", "/predict", bodies[i])

        threads = [
            threading.Thread(target=send, args=(slot,))
            for slot in range(len(self.connections))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
        return statuses

    def window(self, seconds: float) -> None:
        """Drive load for ``seconds``; samples accumulate in ``result``."""
        start = time.perf_counter()
        end = start + seconds
        outs: List[List[Sample]] = [[] for _ in self.connections]
        threads = [
            threading.Thread(target=self._loop, args=(slot, end, outs[slot]))
            for slot in range(len(self.connections))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 60.0)
        self.result.windows.append((start, end))
        for out in outs:
            self.result.samples.extend(out)

    def close(self) -> None:
        for conn in self.connections:
            conn.close()


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------
class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, argv: List[str], env: dict, log_path: Path):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT, env=env
        )
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the port is announced and ``/healthz`` answers."""
        deadline = time.perf_counter() + timeout
        while self.port is None:
            match = _PORT_LINE.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                break
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(
                    f"server did not start: {self.log_path.read_text()[-2000:]}"
                )
            time.sleep(0.005)
        while True:
            try:
                conn = KeepAliveClient(self.port, timeout=5.0)
                try:
                    conn.get_json("/healthz")
                    return
                finally:
                    conn.close()
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self, timeout: float = 15.0) -> None:
        """SIGTERM, then SIGKILL if needed; waits for the exit either way.

        SIGTERM rather than SIGINT: a process started in the background
        inherits SIGINT as ignored, and so would the server.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
        self._log.close()


def server_env(root: Path, workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_KERNEL_CACHE"] = str(workdir / "kernels")
    return env
