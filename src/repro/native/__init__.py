"""Build, cache and load the package's compiled kernels (``_kernels.c``).

One C translation unit holds every kernel family — the ILU(k) symbolic
phase, the block-4 ILU/TRSV recurrences and the dependency depths of their
level schedules (:mod:`repro.sparse`), and the
edge and corner sweeps of the residual and of the first-order Jacobian
(:mod:`repro.sweeps.sweeps`) — and the edge-thread team that runs the
edge sweeps and the ILU factorization on several threads
(:mod:`repro.smp.parallel`).  The source ships as package data and
is compiled on first use with the system C compiler; the shared object is
cached per user under a name that hashes the source and the build flags, so
editing either rebuilds it.  Nothing is ever written next to the source or
into the working directory.

The flags pin the arithmetic: no ``-march=native``, no ``-ffast-math`` and
``-ffp-contract=off`` (no fused multiply-add), so every host runs the same
IEEE multiply/add sequence and forked ranks agree bit for bit.  ``-O3``
vectorizes without reordering any floating-point sum (that would need
``-fassociative-math``), so the object computes what ``-O0`` computes, up
to which of two NaN operands a NaN result carries.

Where no compiler, no writable cache or no loadable object exists,
:func:`load_kernels` warns once and returns ``None``; the callers
(:func:`repro.sparse.fill.ilu_symbolic`, :func:`repro.sparse.ilu.ilu_factorize`,
:func:`repro.sparse.trsv.trsv_solve`,
:func:`repro.sparse.levels.level_schedule`, the residual's sweeps on every
driver — serial, edge threads, ranks — and the Jacobian assembly) then
run their NumPy kernels.  Call it before forking ranks: the children
inherit the loaded handle instead of each racing a cold compile.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

__all__ = ["is_native", "load_kernels", "native_kernels_available"]

_SOURCE = Path(__file__).with_name("_kernels.c")
_COMPILERS = ("cc", "gcc", "clang")
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 120.0


def is_native(a, dtype=np.float64) -> bool:
    """``a`` can be handed to the compiled kernels as it is: the expected
    dtype, C-contiguous."""
    return a.dtype == dtype and a.flags.c_contiguous


def _cache_dirs() -> list[Path]:
    """Per-user cache directory, then a private one under the temp dir."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return [
        base / "repro",
        Path(tempfile.gettempdir()) / f"repro-cache-{os.getuid()}",
    ]


def _usable_dir(path: Path) -> bool:
    """Create ``path`` if needed; accept it only when it is ours and no
    other user can write to it (a shared object is loaded from there)."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return False
    mine = st.st_uid == os.getuid()
    shared = st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    return mine and not shared and os.access(path, os.W_OK | os.X_OK)


def _build(target: Path, flags: tuple[str, ...] = _FLAGS) -> None:
    """Compile ``_kernels.c`` with ``flags`` to ``target`` through an atomic
    rename, so processes racing on a cold cache each install a complete
    file."""
    compiler = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if compiler is None:
        raise OSError("no C compiler found (tried " + ", ".join(_COMPILERS) + ")")
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *flags, "-o", tmp, str(_SOURCE)],
            capture_output=True,
            text=True,
            timeout=_BUILD_TIMEOUT_S,
            cwd=target.parent,
        )
        if proc.returncode != 0:
            raise OSError(
                f"{compiler} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> ctypes.CDLL:
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(_FLAGS).encode()).hexdigest()[:16]
    name = f"repro_kernels-{platform.machine()}-{digest}.so"
    cache = next(filter(_usable_dir, _cache_dirs()), None)
    if cache is None:
        raise OSError("no writable cache directory")
    target = cache / name
    if not target.exists():
        _build(target)
    return _bind(ctypes.CDLL(str(target)))  # OSError on a truncated/corrupt object


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the argument and result types of every entry of ``lib``."""
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.ilu4.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.ilu4.restype = i64
    lib.ilu_symbolic.argtypes = [i64, ptr, ptr, i64, i64, *[ptr] * 6]
    lib.ilu_symbolic.restype = i64
    for entry_name, argtypes in (
        ("trsv4", [i64, *[ptr] * 7]),
        ("dep_depth", [i64, ptr, ptr, ptr, ptr, i64, ptr]),
        ("recon_sweep", [i64, i64, *[ptr] * 9]),
        ("vertex_stage", [i64, ptr, ptr, ptr, ptr, f64, *[ptr] * 4]),
        ("limit_sweep", [i64, i64, *[ptr] * 9]),
        ("limiter_stage", [i64, *[ptr] * 6]),
        ("flux_sweep", [i64, i64, *[ptr] * 10, f64, i64, ptr, ptr]),
        ("jacobian_sweep", [i64, i64, *[ptr] * 10, f64, ptr]),
        ("boundary_sweep", [i64, *[ptr] * 4, f64, i64, ptr, ptr, ptr]),
        # the edge-thread team of repro.smp.parallel
        ("team_serve", [ptr, i64]),
        ("team_sweep", [ptr, i64, *[ptr] * 8, f64, i64, ptr]),
        ("team_jacobian", [ptr, i64, *[ptr] * 5, f64, ptr]),
        ("team_stop", [ptr]),
        ("team_free", [ptr]),
    ):
        entry = getattr(lib, entry_name)
        entry.argtypes, entry.restype = argtypes, None
    lib.team_create.argtypes = [i64, i64, i64, i64, *[ptr] * 4]
    lib.team_create.restype = ptr
    lib.team_ilu4.argtypes = [ptr, i64, ptr, ptr, ptr, i64, *[ptr] * 6]
    lib.team_ilu4.restype = i64
    return lib


@functools.lru_cache(maxsize=1)
def load_kernels() -> ctypes.CDLL | None:
    """The compiled kernels (``ilu_symbolic``, ``ilu4``, ``trsv4``,
    ``dep_depth`` and the edge and corner sweeps), built on first use; ``None`` — after one
    warning — when they cannot be built or loaded."""
    try:
        return _load()
    except (OSError, subprocess.SubprocessError) as exc:
        warnings.warn(
            f"repro.native: compiled kernels unavailable ({exc}); "
            "using the NumPy kernels",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def native_kernels_available() -> bool:
    """True iff the compiled kernels (ILU symbolic/numeric/TRSV and the
    residual's and Jacobian's sweeps) are what this process runs."""
    return load_kernels() is not None
