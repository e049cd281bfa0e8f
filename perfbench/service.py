"""The server process, and the worker process where a workload has one."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENTRY = os.path.join(HERE, "entry.py")

#: Seconds a process may take to bind its port, and to exit when asked.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


def peak_rss_kib(pid: int) -> int:
    """``VmHWM`` of a live process: its peak resident set, in KiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


class Service:
    """One server (plus optional worker) on one state dir.

    Logs, the port file and span files sit next to the state dir, not in
    it, so the state dir holds only what the program writes there.
    """

    def __init__(self, state_dir: str, server_args: Sequence[str] = (),
                 with_worker: bool = False, traced: bool = False) -> None:
        self.state_dir = state_dir
        self.server_args = list(server_args)
        self.with_worker = with_worker
        self.traced = traced
        self.url = ""
        self._processes: List[subprocess.Popen] = []
        self._logs: list = []
        self.span_files: List[str] = []

    def _spawn(self, command: str, args: Sequence[str]) -> subprocess.Popen:
        prefix: List[str] = []
        if self.traced:
            spans_path = f"{self.state_dir}.{command}.spans"
            self.span_files.append(spans_path)
            prefix = ["--spans", spans_path]
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        log = open(f"{self.state_dir}.{command}.log", "wb")
        self._logs.append(log)
        process = subprocess.Popen(
            [sys.executable, ENTRY, *prefix, command, *args],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        self._processes.append(process)
        return process

    def start(self) -> None:
        port_file = f"{self.state_dir}.port"
        server = self._spawn("serve", [
            "--state-dir", self.state_dir, "--port", "0", "--port-file", port_file,
            *self.server_args,
        ])
        if self.with_worker:
            self._spawn("worker", ["--state-dir", self.state_dir])
        deadline = time.perf_counter() + START_TIMEOUT
        while not os.path.exists(port_file):
            if server.poll() is not None:
                raise RuntimeError(f"server exited with {server.returncode}: {self.log_tail('serve')}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server did not bind a port within {START_TIMEOUT}s")
            time.sleep(0.002)
        with open(port_file, "r", encoding="ascii") as handle:
            self.url = f"http://127.0.0.1:{int(handle.read())}"

    def peak_rss_mb(self) -> float:
        """Peak resident memory of every process, summed, in MiB."""
        return sum(peak_rss_kib(process.pid) for process in self._processes) / 1024.0

    def log_tail(self, command: str, lines: int = 20) -> str:
        try:
            with open(f"{self.state_dir}.{command}.log", "r", encoding="utf-8", errors="replace") as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return ""

    def stop(self) -> Optional[str]:
        """Ask every process to exit (SIGINT server, SIGTERM worker) and wait.

        Returns a description of any process that had to be killed or
        exited with an error, else ``None``.
        """
        problems = []
        for process in self._processes:
            if process.poll() is None:
                is_server = process is self._processes[0]
                process.send_signal(signal.SIGINT if is_server else signal.SIGTERM)
        for process in self._processes:
            try:
                process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                problems.append(f"pid {process.pid} killed after {STOP_TIMEOUT}s")
            else:
                if process.returncode != 0:
                    problems.append(f"pid {process.pid} exited with {process.returncode}")
        for log in self._logs:
            log.close()
        self._processes.clear()
        self._logs.clear()
        return "; ".join(problems) or None
