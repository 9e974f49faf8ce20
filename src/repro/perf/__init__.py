"""Performance helpers: report tables, the STREAM probe, and
``scatter_add``, the one write-out helper.  Kernel time is recorded once,
in the :mod:`repro.obs` span tree; counts in its metrics registry."""

# bench/worker.py installs ``use_registry(PerfRegistry())`` around its
# traced solve; these two names keep it running until the next benchmark
# change drops the import.  They are the metrics registry, nothing more.
from ..obs.metrics import MetricsRegistry as PerfRegistry
from ..obs.metrics import use_metrics as use_registry
from .report import format_profile, format_series, format_table
from .scatter import scatter_add
from .stream import measure_stream_triad

__all__ = [
    "PerfRegistry",
    "use_registry",
    "format_profile",
    "format_series",
    "measure_stream_triad",
    "format_table",
    "scatter_add",
]
