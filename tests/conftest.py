"""Shared fixtures: one small synthetic world and one pipeline run.

World construction and the full pipeline are the expensive pieces, so
they are session-scoped; tests must treat them as read-only.
"""

from __future__ import annotations

import json
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


@pytest.fixture()
def v1_trace(tmp_path):
    """A profiled trace as schema version 1 wrote it: its header holds
    only the seed, funnel, stage table and metrics (no ``cpu_count``)."""
    header = {
        "type": "meta", "kind": "repro.trace", "schema_version": 1, "seed": 3,
        "funnel": [{"stage": "images_downloaded", "count": 94}],
        "stages": [{"stage": "url_crawl", "status": "ok", "elapsed_seconds": 0.5}],
        "metrics": [{"name": "crawl.links", "kind": "counter", "value": 27}],
    }
    spans = [
        {"type": "span", "id": i, "parent": i - 1 or None, "name": name,
         "duration": 1.0 / i, "status": "ok", "events": [{"name": "e"}] * (i - 1),
         "attrs": {"profile.cpu_seconds": 0.4, "profile.rss_peak_kb": 80444}}
        for i, name in ((1, "pipeline.run"), (2, "stage.url_crawl"))
    ]
    path = tmp_path / "v1.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *spans]))
    return path
