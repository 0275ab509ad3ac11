"""A2 — ablation of Algorithm 1's OCR branch (§4.4).

Algorithm 1 rescues low-NSFW-score images with many OCR words into the
SFV class.  The ablation compares the full algorithm against a pure
NSFW-threshold classifier across thresholds, showing that (a) without
OCR, reaching zero false negatives forces a much higher false-positive
rate, and (b) the paper's conservative thresholds sit at the 0-miss
corner of the trade-off.
"""

import numpy as np
import pytest

from repro.core import NsfvClassifier
from repro.media import ImageKind, SyntheticImage, sample_latent
from repro.vision import NsfwScorer

from _common import scale_note

NSFV_KINDS = [(ImageKind.MODEL_NUDE, 40), (ImageKind.MODEL_SEXUAL, 20),
              (ImageKind.MODEL_DRESSED, 30)]
SFV_KINDS = [(ImageKind.PROOF_SCREENSHOT, 40), (ImageKind.CHAT_SCREENSHOT, 20),
             (ImageKind.DOCUMENT, 20), (ImageKind.LANDSCAPE, 20),
             (ImageKind.GAME_SCREENSHOT, 10), (ImageKind.MEME, 10)]

#: Draws of the 210-image composition above.  Claim (b) needs an indecent
#: image scored inside Algorithm 1's 0.01-0.05 band: one draw of 90 NSFV
#: images holds none at 7 of 100 latent seeds (either renderer), and with
#: three draws the assertions below held at all of 200.
DRAWS = 3


@pytest.fixture(scope="module")
def labelled_images():
    rng = np.random.default_rng(777)
    images = []
    for _ in range(DRAWS):
        for kind, count in NSFV_KINDS:
            for i in range(count):
                images.append((SyntheticImage(0, sample_latent(rng, kind, model_id=i)), True))
        for kind, count in SFV_KINDS:
            for _ in range(count):
                images.append((SyntheticImage(0, sample_latent(rng, kind)), False))
    return images


def test_a2(labelled_images, benchmark, emit):
    scorer = NsfwScorer()
    scores = np.array([scorer.score(img.pixels) for img, _ in labelled_images])
    labels = np.array([is_nsfv for _, is_nsfv in labelled_images])

    full = NsfvClassifier()

    def run_full():
        return [full.classify(img.pixels).nsfv for img, _ in labelled_images]

    full_flags = np.array(benchmark.pedantic(run_full, rounds=2, iterations=1))

    lines = [
        "A2 — Algorithm 1 vs NSFW-threshold-only " + scale_note(),
        f"labelled set: {len(labelled_images)} images, {int(labels.sum())} NSFV",
        "",
        f"{'variant':<34}{'missed NSFV':>12}{'false pos':>11}",
    ]
    full_miss = int(np.sum(labels & ~full_flags))
    full_fp = int(np.sum(~labels & full_flags))
    lines.append(f"{'Algorithm 1 (NSFW + OCR)':<34}{full_miss:>12}{full_fp:>11}")

    threshold_results = {}
    for threshold in (0.01, 0.05, 0.1, 0.3, 0.5):
        flags = scores > threshold
        miss = int(np.sum(labels & ~flags))
        fp = int(np.sum(~labels & flags))
        threshold_results[threshold] = (miss, fp)
        lines.append(
            f"{'NSFW-only, threshold ' + format(threshold, '.2f'):<34}{miss:>12}{fp:>11}"
        )
    lines.append("")
    lines.append("claim: only the zero-miss NSFW-only variants pay more false")
    lines.append("positives than Algorithm 1; higher thresholds miss indecent images.")
    emit("a2_nsfv_ablation", "\n".join(lines))

    assert full_miss == 0
    # A pure threshold achieving zero misses needs a threshold low enough
    # to flag many text/benign images that OCR would have rescued.
    zero_miss = [fp for miss, fp in threshold_results.values() if miss == 0]
    if zero_miss:
        assert min(zero_miss) >= full_fp
    # Aggressive thresholds (>= 0.3) must miss clothed models.
    assert threshold_results[0.3][0] > 0
