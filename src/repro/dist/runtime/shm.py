"""Shared-memory array allocation with deterministic cleanup.

``multiprocessing.shared_memory`` segments live in ``/dev/shm`` (on Linux)
and outlive the process that created them unless somebody calls
``unlink()``.  A crashed run that allocated its halo mailboxes and
reduction scratch there therefore leaks host memory until reboot — the
classic failure mode of shm-based solvers.  :class:`SharedArrayPool`
centralizes every allocation of the rank runtime's transport so there is
exactly one cleanup path, reached from all of: explicit ``close()``,
``with`` blocks, and an ``atexit`` hook for interpreter shutdown after an
uncaught exception.

Only the *owning* process unlinks: the pool records its creator's PID and
``close()`` is a no-op in forked children, so a rank exiting (or dying)
can never tear the segments out from under its siblings.
"""

from __future__ import annotations

import atexit
import os
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArrayPool"]


class SharedArrayPool:
    """Allocator of named shared-memory NumPy arrays.

    Every array is backed by its own ``SharedMemory`` segment, keyed by a
    caller-chosen name.  The pool owns the segments: ``close()`` unlinks
    them all (idempotent), and is registered with ``atexit`` so segments
    cannot leak past interpreter exit even when user code never reaches its
    own cleanup.  Rank processes created by ``fork`` inherit the mappings
    and need no handles of their own.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._arrays: dict[str, np.ndarray] = {}
        self._owner_pid = os.getpid()
        self._closed = False
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def zeros(
        self, key: str, shape: tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """Allocate a zero-filled shared array under ``key``."""
        if self._closed:
            raise RuntimeError("SharedArrayPool is closed")
        if key in self._segments:
            raise ValueError(f"array {key!r} already allocated")
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dt.itemsize)
        seg = shared_memory.SharedMemory(create=True, size=nbytes)
        arr = np.ndarray(shape, dtype=dt, buffer=seg.buf)
        arr.fill(0)
        self._segments[key] = seg
        self._arrays[key] = arr
        return arr

    def from_array(self, key: str, src: np.ndarray) -> np.ndarray:
        """Allocate a shared copy of ``src`` under ``key``."""
        arr = self.zeros(key, src.shape, src.dtype)
        arr[...] = src
        return arr

    def array(self, key: str) -> np.ndarray:
        """The shared array registered under ``key``."""
        return self._arrays[key]

    def segment_names(self) -> dict[str, str]:
        """Map of pool key -> OS-level segment name (for diagnostics/tests)."""
        return {k: seg.name for k, seg in self._segments.items()}

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def nbytes(self) -> int:
        """Total bytes currently allocated across all segments."""
        return sum(seg.size for seg in self._segments.values())

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment.  Idempotent; no-op in forked children.

        Unlink (removing the ``/dev/shm`` entry — the part that can leak)
        always runs; unmapping is best-effort because NumPy views handed
        out earlier may still hold exported buffers.  Those mappings are
        reclaimed by the OS at process exit either way.
        """
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        self._arrays.clear()
        for seg in self._segments.values():
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
            try:
                seg.close()
            except BufferError:
                pass  # a view is still alive; mapping dies with the process
        self._segments.clear()
        try:
            atexit.unregister(self.close)
        except Exception:
            pass

    def __enter__(self) -> "SharedArrayPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # last-resort safety net
        try:
            self.close()
        except Exception:
            pass
