"""Host fingerprint stamped into ``bench/`` records and flight bundles.

Wall times are only comparable on the same machine; a fingerprint (cpu
count, platform, interpreter/library versions, git revision) stamped into
every ``bench/`` record lets readers discount deltas that coincide with a
host or toolchain change.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

__all__ = ["host_fingerprint", "stable_host_key"]

_cached: dict | None = None

#: fingerprint fields that identify *hardware + numerics stack*.
#: Deliberately excludes ``git_rev`` (changes per commit) and the full
#: ``platform`` string (kernel patch level churns on CI runners) —
#: ``bench/`` records stay comparable across commits on the same box but
#: never cross machines.
STABLE_KEYS = ("cpu_count", "machine", "python", "numpy")


def stable_host_key(fp: dict | None = None) -> dict:
    """The fingerprint subset performance comparisons are valid across."""
    fp = fp if fp is not None else host_fingerprint()
    return {k: fp.get(k) for k in STABLE_KEYS}


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def host_fingerprint() -> dict:
    """Cheap, cached description of the machine and toolchain."""
    global _cached
    if _cached is None:
        import numpy

        try:
            import scipy

            scipy_version = scipy.__version__
        except ImportError:  # pragma: no cover - scipy is baked in
            scipy_version = None
        _cached = {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy_version,
            "git_rev": _git_rev(),
        }
    return dict(_cached)
