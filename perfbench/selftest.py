"""Self-test of the benchmark: every workload at a tiny size, plus the exits.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks, for each workload, that ``run.py --trace 0`` and ``--trace 1``:

* finish with ``correct`` true and no failed op;
* print exactly the metrics ``BENCHMARK.json`` names, with its units, and the
  human-readable report with ``error_rate`` and the write latencies;
* leave no server process and no ``/dev/shm`` segment behind.

It also checks that a run interrupted with SIGTERM or SIGINT in the middle
of its set-up or timed loop exits non-zero without a result and stops its
server, and that a directory holding only ``BENCHMARK.json`` and the
benchmark's files (no program sources) makes the benchmark fail without a
result.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, "perfbench/run.py"]
SHM = Path("/dev/shm")


def _servers() -> set:
    """PIDs of benchmark servers (plain or traced) running on this host."""
    found = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            command = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if b"repro.cli" in command or any(part.endswith(b"traced_server.py") for part in command):
            found.add(int(entry.name))
    return found


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_run(workload: str, trace: int) -> None:
    servers, shm = _servers(), set(os.listdir(SHM))
    completed = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    _check(completed.returncode == 0, f"{workload} trace={trace} exited "
           f"{completed.returncode}: {completed.stderr[-2000:]}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    _check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    _check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace} failed ops: {completed.stdout[-2000:]}")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    _check({name: m["unit"] for name, m in result["metrics"].items()}
           == {m["name"]: m["unit"] for m in expected},
           f"{workload} trace={trace} metric names or units differ from BENCHMARK.json")
    report = "\n".join(lines[:-1])
    for name in ("error_rate",) + (() if trace else ("write_latency_p50_ms", "write_latency_p90_ms")):
        _check(name in report, f"{workload} trace={trace} report lacks {name}")
    _check(not (_servers() - servers), f"{workload} left a server running")
    _check(not (set(os.listdir(SHM)) - shm), f"{workload} left a /dev/shm segment")
    print(f"ok  {workload:18s} trace={trace}  attempted={result['attempted']}")


def check_interrupted(signum: int) -> None:
    """Interrupted mid-run: non-zero exit, no result line, server stopped."""
    servers = _servers()
    process = subprocess.Popen(
        RUN + ["--workload", "explore", "--seed", "4", "--seconds", "20", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline and not (_servers() - servers):
        time.sleep(0.2)
    time.sleep(8)  # into the fill / timed loop
    process.send_signal(signum)
    out, _ = process.communicate(timeout=120)
    _check(process.returncode != 0, "interrupted run exited 0")
    _check(not out.strip() or not out.strip().splitlines()[-1].startswith("{"),
           "interrupted run printed a result")
    _check(not (_servers() - servers), "interrupted run left its server running")
    print(f"ok  {signal.Signals(signum).name} run stops its server and prints no result")


def check_stripped() -> None:
    """Without the program's sources the benchmark fails without a result."""
    stripped = ROOT / ".perfbench_selftest"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        stripped.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, stripped / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            RUN + ["--workload", "explore", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    _check(completed.returncode != 0, "stripped checkout exited 0")
    _check(not completed.stdout.strip(), "stripped checkout printed output")
    print("ok  stripped checkout fails without a result")


def main() -> int:
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace)
    for signum in (signal.SIGTERM, signal.SIGINT):
        check_interrupted(signum)
    check_stripped()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
