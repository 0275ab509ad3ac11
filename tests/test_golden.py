"""Golden outputs: one seeded world's crawl digest and measurement view.

``tests/golden/seed11_scale0.02.json`` records what ``repro run --seed 11
--scale 0.02`` produced at the commit it names: the crawl digest and the
sha256 of the canonical JSON of ``report.telemetry.measurement_view()``.
Every other invariant in this suite compares the system with itself; this
one compares it with a recorded past, so a change that moves a pixel, a
crawl record or a measured quantity fails here even when it is
self-consistent.

A deliberate output change is a re-baseline.  Regenerate the file with

    PYTHONPATH=src python tests/test_golden.py --rebaseline

commit it with the change, and say in the change why the outputs moved.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import build_world, run_pipeline
from repro.synth import WorldConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "seed11_scale0.02.json"
SEED = 11
SCALE = 0.02


def view_sha256(report) -> str:
    """sha256 of the canonical JSON of the run's measurement view."""
    view = report.telemetry.measurement_view()
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def current_outputs() -> dict:
    report = run_pipeline(build_world(WorldConfig(seed=SEED, scale=SCALE)))
    return {
        "crawl_digest": report.crawl.digest(),
        "measurement_view_sha256": view_sha256(report),
    }


@pytest.mark.slow
def test_outputs_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert (golden["seed"], golden["scale"]) == (SEED, SCALE)
    outputs = current_outputs()
    expected = {key: golden[key] for key in outputs}
    # Rendering goes through NumPy's float64 kernels (np.cos, np.sin), so
    # a NumPy upgrade can move outputs too: the message names both
    # versions, and either cause is settled by an explicit re-baseline.
    assert outputs == expected, (
        f"seed {SEED}, scale {SCALE} outputs differ from the golden recorded "
        f"at commit {golden['commit'][:12]} with NumPy {golden['numpy']} "
        f"(running NumPy {np.__version__}). If the change is meant to alter "
        "outputs, re-baseline with `PYTHONPATH=src python "
        "tests/test_golden.py --rebaseline`, commit the new golden file and "
        "explain in the change why the outputs moved; otherwise the change "
        "broke bit-identity."
    )


def rebaseline() -> None:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=Path(__file__).parent,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    record = dict(
        current_outputs(), commit=commit, numpy=np.__version__, seed=SEED, scale=SCALE
    )
    GOLDEN_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rebaseline"]:
        sys.exit("usage: python tests/test_golden.py --rebaseline")
    rebaseline()
