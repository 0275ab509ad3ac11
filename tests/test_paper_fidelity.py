"""Paper fidelity: one default-rate world lands on the paper's headline ratios.

The golden file (``tests/test_golden.py``) pins the outputs bit for
bit; these checks pin them to the *paper*.  One world is built with
default rates at seed 101, scale 0.02 — one of the seeds of the
EXPERIMENTS.md §S2 seed-stability study — and each headline ratio must
fall inside that study's mean ± 3×std over seeds 101/202/303.  The
paper's own value is noted next to each band.  A value outside its band
is a fidelity regression to report, not a band to widen.  The same world
must also rank the link domains of Tables 3 and 4 as the paper does.
"""

from __future__ import annotations

import pytest

from repro import build_world, run_pipeline
from repro.synth import WorldConfig
from repro.web import ServiceKind

SEED = 101
SCALE = 0.02

#: EXPERIMENTS.md §S2: (mean, std) across seeds 101/202/303 at scale
#: 0.02, and the paper's value.
S2_BANDS = {
    "pack match rate": (0.757, 0.022, 0.74),
    "preview match rate": (0.505, 0.046, 0.49),
    "TOP link rate": (0.192, 0.038, 0.187),
    "mean $/transaction": (40.9, 2.8, 41.90),
    "TOP-classifier F1": (0.957, 0.032, 0.92),
}


@pytest.fixture(scope="module")
def report():
    return run_pipeline(build_world(WorldConfig(seed=SEED, scale=SCALE)))


def _headline(report) -> dict:
    return {
        "pack match rate": report.provenance.summary("packs").match_rate,
        "preview match rate": report.provenance.summary("previews").match_rate,
        "TOP link rate": (
            len(report.links.threads_with_links) / max(len(report.tops), 1)
        ),
        "mean $/transaction": report.earnings.mean_transaction_usd(),
        "TOP-classifier F1": report.top_evaluation.f1,
    }


@pytest.mark.parametrize("name", sorted(S2_BANDS))
def test_headline_ratio_within_s2_band(report, name):
    mean, std, paper = S2_BANDS[name]
    value = _headline(report)[name]
    low, high = mean - 3 * std, mean + 3 * std
    assert low <= value <= high, (
        f"{name} = {value:.4f} at seed {SEED}, scale {SCALE}: outside the "
        f"§S2 band [{low:.4f}, {high:.4f}] (paper {paper})"
    )


def test_packs_match_more_often_than_previews(report):
    # The paper's reverse search matches packs (0.74) more often than
    # previews (0.49).
    assert (
        report.provenance.summary("packs").match_rate
        > report.provenance.summary("previews").match_rate
    )


def test_funnel_shape(report):
    funnel = {row["stage"]: row["count"] for row in report.telemetry.funnel()}
    assert funnel["threads_selected"] >= funnel["tops_extracted"] > 0
    assert funnel["images_downloaded"] >= funnel["unique_files"] > 0



def test_table3_image_sharing_ranking(report):
    # Paper: imgur 3,297, Gyazo 1,006, then ImageShack 679 and prnt 383.
    # Third place is tied at this scale, so only the top two are pinned.
    counts = report.links.links_per_domain(ServiceKind.IMAGE_SHARING)
    rest = [n for d, n in counts.items() if d not in ("imgur.com", "gyazo.com")]
    assert counts["imgur.com"] > counts["gyazo.com"] > max(rest), counts


def test_table4_cloud_ranking(report):
    # Paper: MediaFire 892, mega 284, Dropbox 130, oron 95.  mega ties
    # with the third domain at this scale, hence ">=".
    counts = report.links.links_per_domain(ServiceKind.CLOUD_STORAGE)
    rest = [n for d, n in counts.items() if d not in ("mediafire.com", "mega.nz")]
    assert counts["mediafire.com"] >= counts["mega.nz"] >= max(rest), counts
