"""Suite-wide fixtures."""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def _flight_recorder_out_of_tree(tmp_path_factory):
    """Crash-path tests (killed workers and ranks) make the flight
    recorder dump a bundle; unless the environment names a directory
    (CI does, to upload them), send those to a temp dir instead of a
    ``.flightrec/`` under whatever directory pytest was started from."""
    from repro.obs.live.recorder import ENV_DIR

    with pytest.MonkeyPatch.context() as mp:
        if ENV_DIR not in os.environ:
            mp.setenv(ENV_DIR, str(tmp_path_factory.mktemp("flightrec")))
        yield
