"""Shared fixtures: one small synthetic world and one pipeline run.

World construction and the full pipeline are the expensive pieces, so
they are session-scoped; tests must treat them as read-only.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import build_world, run_pipeline
from repro.synth import WorldConfig

#: Scale used by the shared world: large enough that every pipeline stage
#: has material to work with, small enough for quick test runs.
TEST_SCALE = 0.02
TEST_SEED = 7

#: CI chaos leg: set REPRO_TEST_PAYLOAD_PROFILE=hostile (or dirty) to run
#: the whole integration suite against a corrupting internet.  The
#: record-level quarantine boundary is expected to absorb every poison
#: payload, so the suite must still pass.
PAYLOAD_PROFILE = os.environ.get("REPRO_TEST_PAYLOAD_PROFILE") or None


@pytest.fixture(scope="session")
def world():
    """A seeded synthetic world shared by all integration-style tests."""
    return build_world(
        WorldConfig(
            seed=TEST_SEED,
            scale=TEST_SCALE,
            # Elevated abuse rates so the §4.3 stage has matches to find
            # even in a small world.
            underage_rate=0.30,
            hashlist_rate=0.5,
            payload_profile=PAYLOAD_PROFILE,
        )
    )


@pytest.fixture(scope="session")
def report(world):
    """One full pipeline run over the shared world."""
    return run_pipeline(world)


@pytest.fixture()
def rng():
    """A fresh deterministic generator for unit tests."""
    return np.random.default_rng(12345)
