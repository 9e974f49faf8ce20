"""Performance instrumentation: kernel timers, profiles, report tables,
and ``scatter_add``, the one write-out helper."""

from .profile import KernelRecord, PerfRegistry, get_registry, use_registry
from .report import format_profile, format_series, format_table
from .scatter import scatter_add
from .stream import measure_stream_triad

__all__ = [
    "KernelRecord",
    "PerfRegistry",
    "get_registry",
    "use_registry",
    "format_profile",
    "format_series",
    "measure_stream_triad",
    "format_table",
    "scatter_add",
]
