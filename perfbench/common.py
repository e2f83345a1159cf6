"""Helpers shared by the benchmark harness and its program processes.

Nothing here imports the library: the harness must be able to report a
missing source tree before anything else runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: Monte-Carlo samples and minibatch rows of every training workload
TRAIN_SAMPLES = 8
TRAIN_BATCH = 64
#: minibatches the training set is cut into; steps cycle over them
TRAIN_BATCHES = 8
#: steps run before timing; their parameters are the Fig. 9 prefix checked
#: against the other epsilon policy
PREFIX_STEPS = 2


def program_env() -> dict[str, str]:
    """Environment of a program process: the library on the path, nothing else changed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def emit(tag: str, payload: dict) -> None:
    """One protocol line on stdout: ``<TAG> <json>``."""
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def parse_line(line: str) -> tuple[str, dict]:
    tag, _, body = line.strip().partition(" ")
    return tag, (json.loads(body) if body else {})


# ----------------------------------------------------------------------
# /proc readers (Linux)
# ----------------------------------------------------------------------
def proc_status(pid: int) -> dict[str, str]:
    """``/proc/<pid>/status`` as a dict; empty if the process is gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return {}
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key] = value.strip()
    return fields


def child_pids(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (scans ``/proc``)."""
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        status = proc_status(int(entry.name))
        if status.get("PPid", "").isdigit():
            parents[int(entry.name)] = int(status["PPid"])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        for child, ppid in parents.items():
            if ppid == parent:
                found.append(child)
                frontier.append(child)
    return sorted(found)


def _kb(status: dict[str, str], key: str) -> int:
    value = status.get(key, "0 kB").split()[0]
    return int(value) if value.isdigit() else 0


def process_tree_stats(pid: int) -> dict:
    """Peak RSS and involuntary context switches of ``pid`` and its descendants."""
    pids = [pid] + child_pids(pid)
    hwm_kb = 0
    nvcsw = 0
    for member in pids:
        status = proc_status(member)
        hwm_kb += _kb(status, "VmHWM")
        nvcsw += int(status.get("nonvoluntary_ctxt_switches", "0") or 0)
    return {
        "pids": pids,
        "peak_rss_mb": hwm_kb / 1024.0,
        "involuntary_ctx_switches": nvcsw,
    }


def pid_alive(pid: int) -> bool:
    """True for a live, non-zombie process."""
    state = proc_status(pid).get("State", "")
    return bool(state) and not state.startswith("Z")


def cpu_ticks() -> dict[str, int]:
    """Aggregate CPU tick counters from ``/proc/stat`` (for host-steal accounting)."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    ticks = {name: int(value) for name, value in zip(names, fields)}
    ticks["total"] = sum(int(value) for value in fields[:8])
    return ticks


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python's ``shared_memory`` creates."""
    try:
        return {entry.name for entry in Path("/dev/shm").iterdir() if entry.name.startswith("psm_")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def source_revision() -> str:
    """The commit when the tree is a git checkout, else a digest of ``src/``."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def blas_stamp() -> dict:
    """BLAS vendor, version and the thread count it actually runs with."""
    import ctypes

    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(vendor=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libraries = sorted(
        {
            line.split()[-1]
            for line in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        }
    )
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                info["threads"] = int(function())
                break
        if "threads" in info:
            break
    return info


def environment_stamp() -> dict:
    import numpy as np

    watched = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_stamp(),
        "env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_") or key in watched
        },
        "revision": source_revision(),
    }
