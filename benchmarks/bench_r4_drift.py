"""R4 — adversarial drift: per-stage decay and adaptive recovery.

Runs the :mod:`repro.drift` harness for every non-trivial drift profile
(``mild`` / ``aggressive`` / ``hostile``), twice each: the *static*
instrument (defenses off — the epoch-0 classifier frozen, the original
whitelist, the shipped hash radius) and the *adaptive* one
(:meth:`~repro.drift.DefenseConfig.full`).  Two gates per profile:

* **decay** — with defenses off, at least one funnel stage must lose
  ``DECAY_MIN`` recall by the final epoch (if nothing decays, the
  scenario engine isn't doing its job);
* **recovery** — with defenses on, the mean final-epoch recall across
  stages must beat the defenses-off mean by ``RECOVERY_MARGIN`` *and*
  clear the ``RECOVERY_FLOOR`` absolute floor.

Worlds raise ``underage_rate`` / ``hashlist_rate`` (the E3 precedent) so
the abuse stage has ground truth to decay against at bench scale.

Writes ``benchmarks/results/BENCH_drift.json`` and prints its table.

Env knobs: ``REPRO_BENCH_DRIFT_EPOCHS`` (default 2),
``REPRO_BENCH_SCALE`` (shared world scale, capped at 0.02 here).
"""

from __future__ import annotations

import os

from repro.drift import DefenseConfig, STAGE_NAMES, run_drift

from _common import BENCH_SCALE, BENCH_SEED, print_table, write_result_json


PROFILES = ("mild", "aggressive", "hostile")
EPOCHS = int(os.environ.get("REPRO_BENCH_DRIFT_EPOCHS", "2"))
SCALE = min(BENCH_SCALE, 0.02)
UNDERAGE_RATE = 0.25
HASHLIST_RATE = 0.5

DECAY_MIN = 0.10
RECOVERY_MARGIN = 0.10
RECOVERY_FLOOR = 0.60


def _final_recalls(report) -> dict:
    return {stage: report.recall_curve(stage)[-1] for stage in STAGE_NAMES}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def test_r4_drift_decay_and_recovery():
    results = {}
    lines = [f"R4 drift (seed={BENCH_SEED}, scale={SCALE}, epochs={EPOCHS})"]
    for profile in PROFILES:
        runs = {}
        for key, defenses in (
            ("defenses_off", DefenseConfig.none()),
            ("defenses_on", DefenseConfig.full()),
        ):
            runs[key] = run_drift(
                profile,
                epochs=EPOCHS,
                seed=BENCH_SEED,
                scale=SCALE,
                defenses=defenses,
                underage_rate=UNDERAGE_RATE,
                hashlist_rate=HASHLIST_RATE,
            )

        off, on = runs["defenses_off"], runs["defenses_on"]
        baseline = {stage: off.recall_curve(stage)[0] for stage in STAGE_NAMES}
        off_final = _final_recalls(off)
        on_final = _final_recalls(on)
        max_decay = max(baseline[s] - off_final[s] for s in STAGE_NAMES)
        off_mean = _mean(off_final.values())
        on_mean = _mean(on_final.values())

        decay_ok = max_decay >= DECAY_MIN
        recovery_ok = (
            on_mean >= off_mean + RECOVERY_MARGIN and on_mean >= RECOVERY_FLOOR
        )
        results[profile] = {
            "defenses_off": off.as_dict(),
            "defenses_on": on.as_dict(),
            "gates": {
                "max_recall_decay": round(max_decay, 4),
                "decay_min": DECAY_MIN,
                "decay_passed": decay_ok,
                "off_mean_final_recall": round(off_mean, 4),
                "on_mean_final_recall": round(on_mean, 4),
                "recovery_margin": RECOVERY_MARGIN,
                "recovery_floor": RECOVERY_FLOOR,
                "recovery_passed": recovery_ok,
            },
        }
        lines.append(
            f"{profile:<11} max decay {max_decay:.3f} "
            f"(gate >= {DECAY_MIN}); final mean recall "
            f"off {off_mean:.3f} -> on {on_mean:.3f} "
            f"(gate: on >= off+{RECOVERY_MARGIN} and >= {RECOVERY_FLOOR})"
        )
        for stage in STAGE_NAMES:
            lines.append(
                f"  {stage:<11} off {' -> '.join(f'{v:.3f}' for v in off.recall_curve(stage))}"
                f"   on {' -> '.join(f'{v:.3f}' for v in on.recall_curve(stage))}"
            )

        assert decay_ok, (
            f"{profile}: no stage lost >= {DECAY_MIN} recall with defenses "
            f"off (max decay {max_decay:.3f}) — the drift engine is inert"
        )
        assert recovery_ok, (
            f"{profile}: adaptive defenses did not recover (mean final "
            f"recall off={off_mean:.3f}, on={on_mean:.3f})"
        )

    payload = {
        "config": {
            "seed": BENCH_SEED,
            "scale": SCALE,
            "epochs": EPOCHS,
            "profiles": list(PROFILES),
            "underage_rate": UNDERAGE_RATE,
            "hashlist_rate": HASHLIST_RATE,
        },
        "gates": {
            "decay_min": DECAY_MIN,
            "recovery_margin": RECOVERY_MARGIN,
            "recovery_floor": RECOVERY_FLOOR,
        },
        "profiles": results,
    }
    write_result_json("BENCH_drift", payload, sort_keys=True)
    print_table("BENCH_drift", "\n".join(lines))
