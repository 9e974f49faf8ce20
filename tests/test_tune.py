"""Tests for the host-calibrated cost model and auto-tuner (repro.tune).

Covers the calibration-file contract (fit -> write -> load roundtrips to an
identical model; wrong-schema / wrong-host / missing files fall back to the
analytic paper model), tuner determinism and its never-slower-by-default
margin logic, and the serve-tier integration (ExecutionConfig tune fields,
batcher chunking that never changes per-case numerics).
"""

import json
import os

import pytest

from repro.mesh import dataset_mesh
from repro.obs.live.fingerprint import host_fingerprint, same_host
from repro.smp.machine import XEON_E5_2690_V2
from repro.tune import (
    CALIBRATION_SCHEMA,
    active_model,
    calibrated_fabric,
    load_calibration,
    run_calibration,
    save_calibration,
    tune_solve,
)


@pytest.fixture(scope="module")
def fast_calibration():
    """One fast host calibration shared by the module (sub-second)."""
    return run_calibration(fast=True, max_threads=2)


@pytest.fixture(scope="module")
def small_mesh():
    return dataset_mesh("mesh-c", scale=0.04, seed=7, ordering="rcm")


# ---------------------------------------------------------------------------
# calibration file contract
# ---------------------------------------------------------------------------
class TestCalibrationRoundtrip:
    def test_fit_write_load_identical_model(self, fast_calibration, tmp_path):
        path = str(tmp_path / "cal.json")
        save_calibration(fast_calibration, path)
        loaded = load_calibration(path)
        assert loaded is not None
        assert loaded.model == fast_calibration.model
        assert loaded.allreduce_stage_cost == pytest.approx(
            fast_calibration.allreduce_stage_cost
        )
        assert loaded.host == fast_calibration.host
        assert loaded.fast is True

    def test_schema_stamped(self, fast_calibration, tmp_path):
        path = str(tmp_path / "cal.json")
        save_calibration(fast_calibration, path)
        doc = json.load(open(path))
        assert doc["schema"] == CALIBRATION_SCHEMA
        assert doc["host"]["cpu_count"] == os.cpu_count()

    def test_fitted_constants_sane(self, fast_calibration):
        m = fast_calibration.model
        assert m.n_cores == os.cpu_count()
        assert 1e7 <= m.freq_hz <= 1e11
        assert m.core_bw > 0 and m.stream_bw >= m.core_bw
        assert 0.05 <= m.stall_per_load <= 500
        assert 1.0 <= m.unordered_latency_factor <= 4.0
        # assumed (not fitted) constants keep the analytic defaults
        assert m.prefetch_stall_factor == XEON_E5_2690_V2.prefetch_stall_factor
        assert m.simd_gather_factor == XEON_E5_2690_V2.simd_gather_factor

    def test_matches_current_host(self, fast_calibration):
        assert fast_calibration.matches_host()
        assert same_host(fast_calibration.host, host_fingerprint())


class TestActiveModelFallback:
    def test_missing_file_falls_back_to_paper_model(self, tmp_path):
        machine, cal = active_model(str(tmp_path / "nope.json"))
        assert cal is None
        assert machine == XEON_E5_2690_V2

    def test_invalid_json_falls_back(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        machine, cal = active_model(str(path))
        assert cal is None and machine == XEON_E5_2690_V2
        assert load_calibration(str(path)) is None

    def test_wrong_schema_falls_back(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"schema": "other/v9", "model": {}}))
        assert load_calibration(str(path)) is None

    def test_other_host_calibration_rejected(
        self, fast_calibration, tmp_path
    ):
        other = dict(fast_calibration.to_dict())
        other["host"] = dict(other["host"])
        other["host"]["cpu_count"] = (os.cpu_count() or 1) + 99
        path = tmp_path / "other.json"
        path.write_text(json.dumps(other))
        machine, cal = active_model(str(path))
        assert cal is None
        assert machine == XEON_E5_2690_V2
        # but an explicit non-strict load still returns it
        machine, cal = active_model(str(path), require_host_match=False)
        assert cal is not None

    def test_valid_calibration_is_used(self, fast_calibration, tmp_path):
        path = str(tmp_path / "cal.json")
        save_calibration(fast_calibration, path)
        machine, cal = active_model(path)
        assert cal is not None
        assert machine == fast_calibration.model


# ---------------------------------------------------------------------------
# tuner
# ---------------------------------------------------------------------------
class TestTuner:
    def test_deterministic(self, small_mesh):
        a = tune_solve(small_mesh, XEON_E5_2690_V2, ilu_fill=0)
        b = tune_solve(small_mesh, XEON_E5_2690_V2, ilu_fill=0)
        assert a == b

    def test_default_always_priced(self, small_mesh):
        cfg = tune_solve(small_mesh, XEON_E5_2690_V2, ilu_fill=0)
        labels = [c["label"] for c in cfg.to_dict()["candidates"]]
        assert labels[0] == "default"
        assert cfg.default_step_seconds > 0
        assert cfg.predicted_step_seconds <= cfg.default_step_seconds

    def test_never_oversubscribes_the_real_host(self, small_mesh):
        # the paper model has 10 cores; the tuner must still cap worker
        # candidates at the box it actually runs on
        cfg = tune_solve(small_mesh, XEON_E5_2690_V2, ilu_fill=0,
                         allow_dist=False)
        assert cfg.workers <= (os.cpu_count() or 1)

    def test_wide_margin_keeps_default(self, small_mesh):
        cfg = tune_solve(small_mesh, XEON_E5_2690_V2, ilu_fill=0,
                         margin=1e-9, allow_dist=False)
        assert cfg.edge_backend == "serial"
        assert cfg.dist_ranks == 0

    def test_fallback_without_calibration(self, small_mesh, tmp_path):
        machine, cal = active_model(str(tmp_path / "absent.json"))
        cfg = tune_solve(small_mesh, machine, cal, ilu_fill=0)
        assert cfg.machine == XEON_E5_2690_V2.name
        assert cfg.predicted_step_seconds > 0

    def test_batch_width_bounds(self, small_mesh):
        cfg = tune_solve(small_mesh, XEON_E5_2690_V2, ilu_fill=0,
                         serve_cases=3)
        assert 1 <= cfg.batch_width <= 3

    def test_summary_and_speedup(self, small_mesh):
        cfg = tune_solve(small_mesh, XEON_E5_2690_V2, ilu_fill=0)
        assert cfg.predicted_speedup >= 1.0
        assert "ms/step" in cfg.summary()
        d = cfg.to_dict()
        assert d["predicted_speedup"] == cfg.predicted_speedup


class TestCalibratedFabric:
    def test_fallback_without_calibration(self):
        fabric = calibrated_fabric(None, XEON_E5_2690_V2)
        assert fabric.allreduce_time(64.0, 4) > 0
        assert fabric.link_bw == XEON_E5_2690_V2.stream_bw

    def test_uses_fitted_stage_cost(self, fast_calibration):
        fabric = calibrated_fabric(fast_calibration, fast_calibration.model)
        assert fabric.allreduce_time(64.0, 2) > 0


# ---------------------------------------------------------------------------
# serve integration
# ---------------------------------------------------------------------------
class TestServeTuning:
    def test_execution_config_tune_fields(self):
        from repro.serve import ExecutionConfig

        ex = ExecutionConfig()
        assert ex.tune == "off" and ex.calibration == ""

    def test_tuned_family_records_plan(self, fast_calibration, tmp_path):
        from repro.serve.cache import ExecutionConfig, WarmCache
        from repro.serve.protocol import FamilySpec

        path = str(tmp_path / "cal.json")
        save_calibration(fast_calibration, path)
        cache = WarmCache(ExecutionConfig(tune="on", calibration=path))
        try:
            fam, hit = cache.get(FamilySpec(scale=0.03, ilu=0))
            assert not hit
            assert fam.tuned is not None
            assert fam.tuned_batch_width >= 1
            stats = cache.stats()
            assert stats["families"][0]["tuned"]["machine"] == \
                fast_calibration.model.name
        finally:
            cache.close()

    def test_untuned_family_has_no_plan(self):
        from repro.serve.cache import ExecutionConfig, WarmFamily
        from repro.serve.protocol import FamilySpec

        fam = WarmFamily(FamilySpec(scale=0.03, ilu=0), ExecutionConfig())
        try:
            assert fam.tuned is None
            assert fam.tuned_batch_width == 0
        finally:
            fam.close()

    def test_batcher_chunking_preserves_numerics(self):
        from repro.serve.batcher import evaluate_cases
        from repro.serve.cache import ExecutionConfig, WarmFamily
        from repro.serve.protocol import CaseSpec, FamilySpec

        spec = FamilySpec(scale=0.03, ilu=0)
        fam = WarmFamily(spec, ExecutionConfig())
        try:
            cases = [
                CaseSpec.from_dict({"aoa": float(a)}) for a in range(5)
            ]
            full = evaluate_cases(fam, cases)
            fam.tuned_batch_width = 2  # force chunked stacking
            chunked = evaluate_cases(fam, cases)
            for a, b in zip(full, chunked):
                assert a.residual_norm == b.residual_norm
                assert a.residual_max == b.residual_max
                assert a.cl == b.cl and a.cd == b.cd
        finally:
            fam.close()
