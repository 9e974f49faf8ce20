"""Tests for the host STREAM measurement."""

from repro.perf import measure_stream_triad


class TestStream:
    def test_positive_bandwidth(self):
        bw = measure_stream_triad(n_doubles=500_000, repeats=2)
        assert bw > 1e8  # any machine sustains >0.1 GB/s

    def test_repeatable_order_of_magnitude(self):
        a = measure_stream_triad(n_doubles=500_000, repeats=2)
        b = measure_stream_triad(n_doubles=500_000, repeats=2)
        assert 0.2 < a / b < 5.0
