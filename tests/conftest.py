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


def _old_trace(path, **header):
    """A profiled trace whose header an older schema version wrote."""
    header = {
        "type": "meta", "kind": "repro.trace", "seed": 3, **header,
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
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *spans]))
    return path


@pytest.fixture()
def v1_trace(tmp_path):
    """Schema version 1: seed, funnel, stages and metrics only."""
    return _old_trace(tmp_path / "v1.jsonl", schema_version=1)


@pytest.fixture()
def v2_trace(tmp_path):
    """Schema version 2: also the blocks version 3 dropped."""
    return _old_trace(
        tmp_path / "v2.jsonl", schema_version=2, cpu_count=2,
        crawl={"n_links": 27, "n_redirect_hops": 0},
        quarantine={"n_quarantined": 0}, vision_cache={"hit_rate": 0.8},
    )
