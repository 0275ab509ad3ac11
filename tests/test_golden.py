"""Golden outputs and work budget: one seeded world, recorded.

``tests/golden/seed11_scale0.02.json`` records what ``repro run --seed 11
--scale 0.02`` produced at the commit it names: the crawl digest, the
sha256 of the canonical JSON of ``report.telemetry.measurement_view()``,
the sha256 of the generated forum records and the *work budget*
(``work``).  Every other invariant in this suite
compares the system with itself; this one compares it with a recorded
past, so a change that moves a pixel, a crawl record or a measured
quantity fails here even when it is self-consistent.

The budget holds counts that the seed fixes and no machine moves:
``counts`` (renders, kernel calls and hashlist lookups, each split into
``build_world``, ``run_pipeline`` and each epoch of a two-epoch store
run of the same world; a block kernel counts each image it takes),
``telemetry`` (the run's ``work`` registry) and ``store_epoch_1``/``_2``
(the ``work`` registry of each store epoch).  It is compared
exactly: more work fails, and less work is a deliberate change too.

A deliberate change to outputs or to work is a re-baseline.  Regenerate
the file with

    PYTHONPATH=src python tests/test_golden.py --rebaseline

commit it with the change, and say in the change why the outputs or the
work moved.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import build_world, run_pipeline
from repro.media import SyntheticImage
from repro.store import run_incremental
from repro.synth import WorldConfig
from repro.vision import NsfwScorer
from repro.vision.photodna import HashListService

GOLDEN_PATH = Path(__file__).parent / "golden" / "seed11_scale0.02.json"
SEED = 11
SCALE = 0.02

#: Module functions the budget counts, by defining module, with the
#: number of images one call takes.  Several modules import them by
#: name, so every loaded ``repro`` module that binds the original is
#: patched.
COUNTED_FUNCTIONS = (
    ("repro.media.validate", "validate_raster", None),
    ("repro.vision.photodna", "robust_hash", None),
    ("repro.vision.batch", "hash_batch", len),
)


class WorkCounter:
    """Counts renders, kernel calls and hashlist lookups by phase."""

    NAMES = ("renders", "validate_raster", "robust_hash", "hash_batch",
             "nsfw_score", "hashlist_lookups")
    PHASES = ("build", "run", "store_epoch_1", "store_epoch_2")

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.phase = "build"
        # Every counter is named, so a kernel that stops being called shows.
        self.counts = {f"{n}.{p}": 0 for n in self.NAMES for p in self.PHASES}
        render = SyntheticImage.pixels.fget

        def pixels(image):
            if image._pixels is None:
                self.count("renders")
            return render(image)

        monkeypatch.setattr(SyntheticImage, "pixels", property(pixels))
        for module_name, name, per_call in COUNTED_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), name)
            counting = self.counting(name, original, per_call)
            for key, module in list(sys.modules.items()):
                if key.split(".")[0] == "repro" and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        # ``score`` scores a one-image block, so this counts it too.
        monkeypatch.setattr(NsfwScorer, "score_block", self.counting(
            "nsfw_score", NsfwScorer.score_block, lambda scorer, rasters: len(rasters)
        ))
        monkeypatch.setattr(HashListService, "match_hash", self.counting(
            "hashlist_lookups", HashListService.match_hash
        ))
        match_hashes = HashListService.match_hashes

        def many(service, image_hashes, *args, **kwargs):
            image_hashes = list(image_hashes)
            self.count("hashlist_lookups", len(image_hashes))
            return match_hashes(service, image_hashes, *args, **kwargs)

        monkeypatch.setattr(HashListService, "match_hashes", many)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[f"{name}.{self.phase}"] += n

    def counting(self, name: str, fn, per_call=None):
        """``fn``, counting one ``name`` per call or ``per_call(*args)`` per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name, 1 if per_call is None else per_call(*args))
            return fn(*args, **kwargs)

        return wrapper


def view_sha256(report) -> str:
    """sha256 of the canonical JSON of the run's measurement view."""
    view = report.telemetry.measurement_view()
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def forum_records_sha256(dataset) -> str:
    """sha256 over the ``repr`` of every forum record, kind by kind, in id order."""
    digest = hashlib.sha256()
    for kind in ("forum", "board", "actor", "thread", "post"):
        records = getattr(dataset, f"{kind}s")()
        for record in sorted(records, key=lambda r: getattr(r, f"{kind}_id")):
            digest.update(repr(record).encode("utf-8") + b"\n")
    return digest.hexdigest()


def work_registry(report) -> dict:
    """A run's ``telemetry.work`` gauges as ``{name: value}``."""
    return {m["name"]: m["value"] for m in report.telemetry.work.snapshot()}


def current_outputs() -> dict:
    config = WorldConfig(seed=SEED, scale=SCALE)
    with pytest.MonkeyPatch.context() as monkeypatch, tempfile.TemporaryDirectory() as tmp:
        counter = WorkCounter(monkeypatch)
        world = build_world(config)
        counter.phase = "run"
        report = run_pipeline(world)
        work = {"counts": counter.counts, "telemetry": work_registry(report)}
        store = Path(tmp) / "golden.sqlite"
        for epoch in (1, 2):
            counter.phase = f"store_epoch_{epoch}"
            result = run_incremental(
                store, epoch=epoch, config=replace(config, epoch_total=2)
            )
            work[f"store_epoch_{epoch}"] = work_registry(result.report)
    return {
        "crawl_digest": report.crawl.digest(),
        "measurement_view_sha256": view_sha256(report),
        "forum_records_sha256": forum_records_sha256(world.dataset),
        "work": work,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    record = json.loads(GOLDEN_PATH.read_text())
    assert (record["seed"], record["scale"]) == (SEED, SCALE)
    return record


@pytest.fixture(scope="module")
def outputs() -> dict:
    return current_outputs()


@pytest.mark.slow
def test_outputs_match_golden(golden, outputs):
    keys = ("crawl_digest", "measurement_view_sha256", "forum_records_sha256")
    expected = {key: golden[key] for key in keys}
    actual = {key: outputs[key] for key in expected}
    # Rendering goes through NumPy's float64 kernels (np.cos, np.sin), so
    # a NumPy upgrade can move outputs too: the message names both
    # versions, and either cause is settled by an explicit re-baseline.
    assert actual == expected, (
        f"seed {SEED}, scale {SCALE} outputs differ from the golden recorded "
        f"at commit {golden['commit'][:12]} with NumPy {golden['numpy']} "
        f"(running NumPy {np.__version__}). If the change is meant to alter "
        "outputs, re-baseline with `PYTHONPATH=src python "
        "tests/test_golden.py --rebaseline`, commit the new golden file and "
        "explain in the change why the outputs moved; otherwise the change "
        "broke bit-identity."
    )


@pytest.mark.slow
def test_work_matches_budget(golden, outputs):
    recorded, current = (
        {f"{block}.{name}": n for block, ns in work.items() for name, n in ns.items()}
        for work in (golden["work"], outputs["work"])
    )
    changed = [
        f"  {name}: {recorded.get(name)} -> {current.get(name)}"
        for name in sorted(set(recorded) | set(current))
        if recorded.get(name) != current.get(name)
    ]
    assert not changed, (
        f"seed {SEED}, scale {SCALE} work differs from the budget recorded at "
        f"commit {golden['commit'][:12]} (recorded -> now):\n"
        + "\n".join(changed)
        + "\nMore work is a regression; a deliberate change re-baselines "
        "as the module docstring says."
    )


def rebaseline() -> None:
    commit = subprocess.check_output(
        ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent, text=True
    ).strip()
    record = dict(
        current_outputs(), commit=commit, numpy=np.__version__, seed=SEED, scale=SCALE
    )
    GOLDEN_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rebaseline"]:
        sys.exit("usage: python tests/test_golden.py --rebaseline")
    rebaseline()
