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


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment by OS name without tracker side effects.

    Attaching must never let *this* process's ``resource_tracker`` claim the
    segment: the tracker would unlink it at interpreter shutdown, tearing a
    still-live mapping out from under the owning process (the well-known
    CPython gh-82300 hazard).  Python 3.13 grew ``track=False`` for exactly
    this; on older versions the registration is undone by hand.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python <= 3.12: no track parameter
        # suppress (rather than undo) the registration: an unregister
        # message would race with other attached processes sharing the
        # tracker and spam KeyErrors in the tracker process
        from multiprocessing import resource_tracker

        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **kw: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig


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
        self._attached = False
        atexit.register(self.close)

    @classmethod
    def attach(
        cls,
        name_map: dict[str, tuple[str, tuple[int, ...], np.dtype | str]],
    ) -> "SharedArrayPool":
        """Attach to segments another process created, without ownership.

        ``name_map`` maps pool key -> ``(os_segment_name, shape, dtype)``
        (the owning side produces it with :meth:`export_spec`).  The
        returned pool opens new handles onto the existing ``/dev/shm``
        entries; its ``close()`` only unmaps — it never unlinks, so an
        attached child (or its crash-teardown path) cannot destroy segments
        the owner still uses.  Typical use: a rank process of the
        distributed runtime re-attaching the rank-shared arrays by name.
        """
        pool = cls()
        pool._attached = True
        try:
            for key, (name, shape, dtype) in name_map.items():
                seg = _attach_segment(name)
                pool._segments[key] = seg
                pool._arrays[key] = np.ndarray(
                    tuple(shape), dtype=np.dtype(dtype), buffer=seg.buf
                )
        except BaseException:
            pool.close()
            raise
        return pool

    def export_spec(self) -> dict[str, tuple[str, tuple[int, ...], str]]:
        """Attachment spec for :meth:`attach`: key -> (name, shape, dtype)."""
        return {
            k: (seg.name, self._arrays[k].shape, self._arrays[k].dtype.str)
            for k, seg in self._segments.items()
        }

    # ------------------------------------------------------------------
    def zeros(
        self, key: str, shape: tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """Allocate a zero-filled shared array under ``key``."""
        if self._closed:
            raise RuntimeError("SharedArrayPool is closed")
        if self._attached:
            raise RuntimeError("attached pools cannot allocate new segments")
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
        reclaimed by the OS at process exit either way.  Attached pools
        (:meth:`attach`) never unlink: they close only their own mappings
        and leave the segments to the owner.
        """
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        self._arrays.clear()
        for seg in self._segments.values():
            if not self._attached:
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
