"""The environment block recorded with every result."""

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_runtime_threads(package_dir, symbols):
    """Thread count reported by an OpenBLAS bundled next to `package_dir`, or None."""
    libs = glob.glob(os.path.join(package_dir.rstrip(os.sep) + ".libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in symbols:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha(root):
    """HEAD commit read from `root`/.git, or None outside a git checkout."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    """SHA-256 over the program's Python sources (path and content)."""
    h = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root, src):
    import numpy
    import scipy

    from wsmgp import BACKEND

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy_runtime_threads": _openblas_runtime_threads(
                numpy.__path__[0], ["scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                                    "openblas_get_num_threads"]),
            "scipy_runtime_threads": _openblas_runtime_threads(
                scipy.__path__[0], ["scipy_openblas_get_num_threads", "openblas_get_num_threads"]),
        },
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "kernel_backend": BACKEND,
        "git_sha": git_sha(root),
        "src_sha256": source_digest(src),
    }
