"""Run record: what a result was measured on.

``process_record`` runs inside a workload process, after numpy and
scipy are imported, because the BLAS thread count is a property of the
loaded libraries and of that process's environment.  ``machine_record``
runs in the benchmark's parent process.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
from pathlib import Path

# what this benchmark does not control or cannot see from user space
UNMEASURED = (
    "cpu pinning: none; processes float over the allowed cores of a "
    "shared machine",
    "cpu frequency and turbo state: not controlled or read",
    "hardware counters (cycles, cache misses): not read",
    "memory bandwidth: not measured; design_matrix bytes are computed "
    "as 8 x entries",
)

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads")
_BLAS_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_",
                        "scipy_openblas_get_config",
                        "openblas_get_config64_", "openblas_get_config")


def _first_symbol(lib, names):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def _loaded_openblas() -> list:
    """Thread count and build string of each OpenBLAS in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower()
                    and line.split()[-1].startswith("/")})
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _first_symbol(lib, _BLAS_THREAD_SYMBOLS)
        config = _first_symbol(lib, _BLAS_CONFIG_SYMBOLS)
        if threads is None:
            continue
        threads.restype = ctypes.c_int
        entry = {"library": os.path.basename(path), "threads": threads()}
        if config is not None:
            config.restype = ctypes.c_char_p
            entry["config"] = config().decode(errors="replace").strip()
        out.append(entry)
    return out


def process_record() -> dict:
    import numpy as np
    import scipy
    import scalereg

    backend = getattr(scalereg, "backend_name", None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "scalereg_backend": backend() if backend else "n/a",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_loaded": _loaded_openblas(),
    }


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_record(root: Path) -> dict:
    sha = _git_sha(root)
    unmeasured = list(UNMEASURED)
    if sha is None:
        unmeasured.append("git SHA: the checkout is not a git repository")
    return {"nproc": os.cpu_count(),
            "allowed_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "machine": platform.machine(),
            "git_sha": sha,
            "unmeasured": unmeasured}
