"""A4 — extension: forum-text normalisation (§4.1 limitation).

§4.1 lists noisy forum text (jargon, leet-speak, grammar errors) as a
limitation of the NLP features and suggests normalising the data into a
common format.  The synthetic world writes ~8% of eWhoring headings in
leet/stretched form; this ablation measures the classifier with and
without the normaliser, on held-out threads and on held-out TOP headings
leeted the way the world leets them.

Both variants' ML arms are trained SVMs, and on a TOP heading without
keywords either one may flip with its training sample.  One 800/200
split puts about 20 TOPs in the test set, so one flip moves recall by
5 points, and the corpus holds only 10-22 leeted TOP headings, nearly
all of which the plain hybrid already recovers.  The claims are
therefore pooled over ``TRIALS`` independent annotation draws.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import HybridTopClassifier
from repro.ml import confusion_matrix, train_test_split
from repro.synth.templates import corrupt_heading
from repro.text import normalize_forum_text

from _common import scale_note

#: Independent annotation draws (1,000 threads, split 800/200 as in
#: §4.1).  At world seeds 11-25, on world streams 1 and 2, the pooled
#: recall with the normaliser stays within 0.8 points of the plain
#: variant's and the hybrid with it recovers 1-20 more leeted TOPs; one
#: draw, or a pool of five, reversed the hybrid ordering at some seeds.
TRIALS = 20


def _is_corrupted(heading: str) -> bool:
    return normalize_forum_text(heading).lower() != " ".join(heading.split()).lower()


def test_a4(bench_world, bench_report, benchmark, emit):
    dataset = bench_world.dataset
    truth = bench_world.forums.thread_types
    selection = bench_report.selection
    n_sample = min(1000, len(selection))

    def run_trials():
        test_y, plain_y, norm_y = [], [], []
        leeted_hits = np.zeros(5, dtype=int)  # n, plain/normalised hybrid, heuristics
        for trial in range(TRIALS):
            rng = np.random.default_rng(123 + trial)
            indices = rng.choice(len(selection), size=n_sample, replace=False)
            annotated = [selection[int(i)] for i in indices]
            labels = np.array([truth.get(t.thread_id) == "top" for t in annotated])
            split = train_test_split(
                n_sample, train_fraction=0.8, seed=3 + trial,
                stratify_labels=labels.astype(int),
            )
            train = [annotated[i] for i in split.train_indices]
            train_y = list(labels[split.train_indices])
            test = [annotated[i] for i in split.test_indices]
            plain = HybridTopClassifier().fit(dataset, train, train_y)
            normalised = HybridTopClassifier.with_normalization().fit(dataset, train, train_y)
            test_y.append(labels[split.test_indices])
            plain_y.append(plain.predict(dataset, test))
            norm_y.append(normalised.predict(dataset, test))

            leeted = [
                dataclasses.replace(t, heading=corrupt_heading(rng, t.heading))
                for t, is_top in zip(test, test_y[-1]) if is_top
            ]
            leeted = [t for t in leeted if _is_corrupted(t.heading)]
            if leeted:
                leeted_hits += [
                    len(leeted),
                    plain.predict(dataset, leeted).sum(),
                    normalised.predict(dataset, leeted).sum(),
                    plain.predict_heuristic(dataset, leeted).sum(),
                    normalised.predict_heuristic(dataset, leeted).sum(),
                ]
        test_y = np.concatenate(test_y)
        return (
            confusion_matrix(test_y, np.concatenate(plain_y)),
            confusion_matrix(test_y, np.concatenate(norm_y)),
            leeted_hits,
        )

    cm_plain, cm_norm, leeted_hits = benchmark.pedantic(run_trials, rounds=1, iterations=1)
    n_leeted, plain_hits, norm_hits, heur_plain, heur_norm = (int(v) for v in leeted_hits)
    corpus_leeted = sum(
        1 for t in selection if truth.get(t.thread_id) == "top" and _is_corrupted(t.heading)
    )

    lines = [
        "A4 — forum-text normalisation extension " + scale_note(),
        f"held-out threads pooled over {TRIALS} annotation draws: "
        f"{cm_plain.true_positive + cm_plain.false_negative} TOPs",
        f"{'variant':<22}{'precision':>11}{'recall':>9}{'F1':>7}",
        f"{'without normaliser':<22}{cm_plain.precision:>11.2%}{cm_plain.recall:>9.2%}{cm_plain.f1:>7.2f}",
        f"{'with normaliser':<22}{cm_norm.precision:>11.2%}{cm_norm.recall:>9.2%}{cm_norm.f1:>7.2f}",
        "",
        f"leeted TOP headings in the corpus: {corpus_leeted}",
        f"held-out TOPs with leeted headings, pooled: {n_leeted}",
        f"  heuristics recover {heur_norm}/{n_leeted} with the normaliser "
        f"vs {heur_plain}/{n_leeted} without",
        f"  hybrid recovers {norm_hits}/{n_leeted} vs {plain_hits}/{n_leeted}",
    ]
    emit("a4_normalization", "\n".join(lines))

    assert heur_norm > heur_plain, "normaliser must recover leeted keywords"
    assert norm_hits >= plain_hits
    assert cm_norm.recall >= cm_plain.recall - 0.05
