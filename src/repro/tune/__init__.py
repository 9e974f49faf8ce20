"""Host calibration and per-mesh auto-tuning.

The analytic machine model answers the paper's questions for the paper's
hardware; this package makes the same cost paths answer them for the
*host that is actually running*:

* :mod:`~repro.tune.calibrate` — ``repro calibrate``: micro-bench sweeps
  fit the :class:`~repro.smp.machine.MachineModel` constants and write a
  host-fingerprinted ``.repro_calibration.json``;
* :mod:`~repro.tune.tuner` — ``--tune``: a deterministic search over the
  CLI's configuration space, priced by the calibrated model, that never
  picks anything *predicted* slower than the static default.

What the choices cost in measured wall-clock is recorded in EXPERIMENTS.md
("Auto-tuner, measured"); ``bench/`` is the harness to re-measure with.
"""

from .calibrate import (
    CALIBRATION_SCHEMA,
    DEFAULT_CALIBRATION_PATH,
    Calibration,
    active_model,
    calibrated_fabric,
    fit_machine_model,
    load_calibration,
    run_calibration,
    run_micro_benchmarks,
    same_host,
    save_calibration,
    stable_host_key,
)
from .tuner import TunedConfig, tune_solve

__all__ = [
    "CALIBRATION_SCHEMA",
    "DEFAULT_CALIBRATION_PATH",
    "Calibration",
    "TunedConfig",
    "active_model",
    "calibrated_fabric",
    "fit_machine_model",
    "load_calibration",
    "run_calibration",
    "run_micro_benchmarks",
    "same_host",
    "save_calibration",
    "stable_host_key",
    "tune_solve",
]
