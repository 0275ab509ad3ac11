"""Tests of the end-to-end benchmark harness (not of ``repro`` itself).

    PYTHONPATH=src python3 -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import copy
import json
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import LayerTrace  # noqa: E402


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_summarize_three_samples():
    assert run.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "q1": 1.0, "q3": 3.0, "n": 3}


def test_summarize_ten_samples():
    summary = run.summarize(range(1, 11))
    assert summary["median"] == 5.5
    assert summary["q1"] == pytest.approx(2.75)
    assert summary["q3"] == pytest.approx(8.25)
    assert summary["n"] == 10


def test_summarize_one_sample_has_no_spread():
    assert run.summarize([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}


# ----------------------------------------------------------------------
# traced spans
# ----------------------------------------------------------------------
def test_nested_spans_on_two_threads_never_give_negative_self_time():
    from repro.obs import Tracer, aggregate_spans

    trace = LayerTrace(Tracer())
    inner = trace._wrap(lambda: time.sleep(0.01), "inner")
    outer = trace._wrap(lambda: [inner() for _ in range(3)], "outer")

    def lane():
        for _ in range(3):
            outer()

    with trace.tracer.span("root"):
        worker = threading.Thread(target=lane)
        worker.start()
        lane()
        worker.join(timeout=30)
    assert not worker.is_alive()

    records = [s.as_dict() for s in trace.tracer.spans()]
    by_id = {r["id"]: r for r in records}
    for record in records:
        children = [r for r in records if r["parent"] == record["id"]]
        assert sum(c["duration"] for c in children) <= record["duration"] + 1e-9
        if record["parent"] is not None:
            parent = by_id[record["parent"]]
            assert parent["t_start"] <= record["t_start"]
            assert record["t_end"] <= parent["t_end"]
    rows = {row["name"]: row for row in aggregate_spans(records)}
    assert rows["outer"]["count"] == 6 and rows["inner"]["count"] == 18
    assert all(row["self_seconds"] >= 0.0 for row in rows.values())


def test_import_span_leads_the_records():
    from repro.obs import Tracer

    trace = LayerTrace(Tracer())
    with trace.tracer.span("work"):
        pass
    records = trace.span_records(import_s=0.5)
    assert records[0]["name"] == "import"
    assert records[0]["duration"] == 0.5
    assert len({r["id"] for r in records}) == len(records)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _rep(world=11, digest="d", view="v", **extra):
    rep = {
        "world_seed": world, "crawl_digest": digest, "view_sha256": view,
        "degraded": False, "stage_failures": [], "injected": 0, "quarantined": 0,
    }
    rep.update(extra)
    return rep


def test_check_requires_one_output_per_world_across_workloads():
    results = {
        "cold": {"reps": [_rep(), _rep(world=12, digest="e")]},
        "threads2": {"reps": [_rep(), _rep(world=12, digest="x")]},
    }
    known = {}
    run.check(results, known)
    assert "failure" not in results["cold"]["reps"][1]
    assert "failure" not in results["threads2"]["reps"][0]
    assert "differs" in results["threads2"]["reps"][1]["failure"]


def test_check_compares_with_earlier_invocations():
    known = {run.output_key("cold", 11): ["old", "v"]}
    results = {"warm_delta": {"reps": [_rep()]}}
    run.check(results, known)
    assert "failure" in results["warm_delta"]["reps"][0]


def test_check_hostile_ledger():
    ok = _rep(injected=5, quarantined=5)
    leaked = _rep(world=12, injected=5, quarantined=4)
    clean = _rep(world=13)
    results = {"hostile": {"reps": [ok, leaked, clean]}}
    run.check(results, {})
    assert "failure" not in ok
    assert "quarantined 4" in leaked["failure"]
    assert "injected nothing" in clean["failure"]


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _record(walls, cpu_count=2):
    """A record of one ``cold`` workload; ``walls`` maps world -> wall_s."""
    reps = [
        {"world_seed": world, "wall_s": wall, "setup_s": wall / 2, "measure_s": wall / 3,
         "peak_rss_mb": 300.0, "images_downloaded": 5000}
        for world, wall in walls.items()
    ]
    result = {"reps": reps}
    return {
        "fingerprint": {"cpu_model": "cpu", "cpu_count": cpu_count},
        "workloads": {"cold": dict(result, metrics=run.metrics_of(result))},
    }


def _verdict(a, b):
    rows, regressed = run.compare(a, b, run.load_spec())
    (row,) = [r for r in rows if r[1] == "wall_s"]
    return row[-1], regressed


WORLDS = {11: 14.0, 1_000_011: 11.0}


def test_compare_flags_a_regression_beyond_the_bound_and_passes_one_within():
    bound = {m["name"]: m["bound"] for m in run.load_spec()["end_to_end"]}["wall_s"]
    base = _record(WORLDS)
    slower = _record({w: v * (1 + bound * 1.5) for w, v in WORLDS.items()})
    within = _record({w: v * (1 + bound * 0.5) for w, v in WORLDS.items()})
    assert _verdict(base, slower) == ("REGRESSION", True)
    assert _verdict(base, within) == ("ok", False)
    assert _verdict(base, base) == ("ok", False)


def test_compare_pairs_worlds_so_their_spread_is_not_noise():
    # The two worlds differ by 27%, far beyond the bound, yet each
    # world's own change is small: resolved, and no regression.
    assert _verdict(_record(WORLDS), _record({11: 14.2, 1_000_011: 11.1})) == ("ok", False)


def test_compare_reports_unresolved_when_paired_changes_disagree():
    assert _verdict(_record(WORLDS), _record({11: 18.0, 1_000_011: 8.0}))[0] == "unresolved"
    assert _verdict(_record(WORLDS), _record({11: 10.0, 1_000_011: 5.0}))[0] == "ok"


def test_compare_refuses_other_machines_and_other_worlds(tmp_path, capsys):
    paths = []
    records = (_record(WORLDS), _record(WORLDS, cpu_count=8), _record({12: 14.0}))
    for i, record in enumerate(records):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(record))
        paths.append(str(path))
    assert run.main(["compare", paths[0], paths[1]]) == 2
    assert "cpu_count differs" in capsys.readouterr().out
    assert run.main(["compare", paths[0], paths[2]]) == 2
    assert "share no measured world" in capsys.readouterr().out
    assert run.main(["compare", paths[0], paths[0]]) == 0


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_validates():
    spec = run.load_spec()
    assert run.validate_spec(spec) == []
    setup = {m["name"]: m for m in spec["end_to_end"]}["setup_s"]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("mutate, problem", [
    (lambda s: s["workloads"][0].update(name="no spaces"), "bad name"),
    (lambda s: s.update(workloads=s["workloads"][:1]), "want 2-8"),
    (lambda s: s["end_to_end"][0].update(bound=0.5), "not in (0, 0.25]"),
    (lambda s: s["end_to_end"][0].pop("unit"), "keys"),
    (lambda s: s["per_layer"].append({"name": "mystery.calls", "unit": "count", "better": "lower"}),
     "names no end-to-end metric"),
    (lambda s: s["per_layer"].append(dict(s["per_layer"][0])), "used 2 times"),
])
def test_benchmark_json_validation_rejects(mutate, problem):
    spec = copy.deepcopy(run.load_spec())
    mutate(spec)
    assert any(problem in p for p in run.validate_spec(spec))
