"""End-to-end benchmark of a whole ``repro run``: time, RSS and correctness.

Every repetition is a fresh interpreter (``worker.py``) driven through
the public calls ``repro run`` makes, so ``wall_s`` runs from spawning
the interpreter to its exit and ``peak_rss_mb`` is that process's own
peak.  Repetitions run one after another -- a closed loop with one
client -- and no workload uses more than two threads.

Repetition ``i`` of ``--seed S`` measures the world seeded
``S + i * WORLD_STRIDE``, so repetition 0 is the world ``repro run
--seed S`` builds.  How long a run takes varies more between worlds
than between runs of one world, so each repetition measures another
world and each metric is the median over them; the record keeps every
repetition and the quartiles.

    python3 benchmarks/e2e/run.py --seed 11              # every workload
    python3 benchmarks/e2e/run.py --seed 11 --trace 1    # plus one traced repetition each
    python3 benchmarks/e2e/run.py --workload cold --seed 11 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py compare A.json B.json

Each invocation writes one record under ``benchmarks/e2e/results/``
and ends its standard output with one JSON line: ``correct``,
``attempted``, ``failed`` and the ``BENCHMARK.json`` metrics with their
units.  It exits 1 when any output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
WORK = HERE / ".work"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: (crawl digest, measurement view) of every world measured so far by
#: the current sources; see :func:`check`.
OUTPUTS_PATH = RESULTS / "outputs.json"

sys.path.insert(0, str(HERE))
from worker import WORKLOADS  # noqa: E402

#: World scale of every workload.
SCALE = 0.05
#: Repetitions (worlds) per workload unless ``--reps`` asks for more.
MIN_REPS = 2
#: Distance between the world seeds of successive repetitions, large
#: enough that the runs of nearby ``--seed`` values share no world.
WORLD_STRIDE = 1_000_000
#: No repetition of a workload starts after this many seconds, so one
#: ``--workload`` invocation ends within three minutes.
WORKLOAD_DEADLINE_S = 170.0

#: Every end-to-end metric a repetition yields: (unit, better).
E2E_METRICS = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "measure_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "images_per_s": ("images/s", "higher"),
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles, as ``statistics.quantiles(values, n=4)``."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def load_spec(path: Path = SPEC_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_spec(spec: dict) -> List[str]:
    """Problems with a benchmark definition (empty when it is valid)."""
    from layers import moves_for

    problems = []
    workloads = [w.get("name") for w in spec.get("workloads", [])]
    end_to_end = spec.get("end_to_end", [])
    per_layer = spec.get("per_layer", [])
    if not 2 <= len(workloads) <= 8:
        problems.append(f"{len(workloads)} workloads, want 2-8")
    if not 1 <= len(end_to_end) <= 16:
        problems.append(f"{len(end_to_end)} end-to-end metrics, want 1-16")
    if not 1 <= len(per_layer) <= 128:
        problems.append(f"{len(per_layer)} layer metrics, want 1-128")
    names = workloads + [m.get("name") for m in end_to_end + per_layer]
    for name in names:
        if not isinstance(name, str) or not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    for name, count in Counter(names).items():
        if count > 1:
            problems.append(f"name {name!r} used {count} times")
    for workload in workloads:
        if workload not in WORKLOADS:
            problems.append(f"workload {workload!r} has no definition")
    for metric in end_to_end:
        if set(metric) != {"name", "unit", "better", "bound"}:
            problems.append(f"end-to-end {metric.get('name')!r}: keys {sorted(metric)}")
        elif metric["name"] not in E2E_METRICS:
            problems.append(f"end-to-end {metric['name']!r} is never measured")
        elif (metric["unit"], metric["better"]) != E2E_METRICS[metric["name"]]:
            problems.append(f"{metric['name']}: unit and better must be {E2E_METRICS[metric['name']]}")
        elif not 0 < metric["bound"] <= 0.25:
            problems.append(f"{metric['name']}: bound {metric['bound']} not in (0, 0.25]")
    for metric in per_layer:
        name = metric.get("name")
        if set(metric) != {"name", "unit", "better"}:
            problems.append(f"layer {name!r}: keys {sorted(metric)}")
            continue
        entry = moves_for(name)
        if entry is None:
            problems.append(f"layer {name!r} names no end-to-end metric to move")
            continue
        for target in entry["moves"]:
            if target not in E2E_METRICS:
                problems.append(f"layer {name!r} moves unknown metric {target!r}")
        for workload in entry["on"]:
            if workload not in WORKLOADS:
                problems.append(f"layer {name!r} names unknown workload {workload!r}")
    return problems


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def sources_sha256() -> str:
    """One hash over every file of the program under ``src/``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Running repetitions
# ----------------------------------------------------------------------
def _worker_env(world: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(WORK)
    # The string-hash seed moves set and dict layouts, and with them peak
    # RSS; tying it to the world makes a repetition's input its seed alone.
    env["PYTHONHASHSEED"] = str(world % 2**32)
    # One BLAS thread: the only threads a workload runs are its own.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: List[str], world: int, deadline: float) -> dict:
    """Run one ``worker.py`` interpreter; its JSON line plus ``wall_s``.

    A non-zero exit, a timeout or a missing result line comes back as
    ``{"error": ...}``; the caller counts it as a failed repetition.
    """
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    timeout = max(1.0, deadline - time.perf_counter())
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(world), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f}s"}
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no result line"}
    result["wall_s"] = wall_s
    return result


def _copy_store(template: Path, dest: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        target = Path(str(dest) + suffix)
        if target.exists():
            target.unlink()
        source = Path(str(template) + suffix)
        if source.exists():
            shutil.copyfile(source, target)


def run_rep(name: str, world: int, deadline: float, trace_out: Optional[Path] = None) -> dict:
    """One repetition of ``name`` on one world.

    The store workload first builds its epoch-1 template store (the
    set-up, timed as ``setup_s``), then measures epoch 2 on a copy.
    """
    base = ["--workload", name, "--seed", str(world), "--scale", str(SCALE)]
    measure = base + ([] if trace_out is None else ["--trace-out", str(trace_out)])
    if not WORKLOADS[name]["config"].get("epoch_total"):
        return dict(spawn(measure, world, deadline), world_seed=world)
    template = WORK / f"{name}-{world}-template.db"
    setup = None
    if not template.exists():
        setup = spawn(base + ["--template", "--store", str(template)], world, deadline)
        if "error" in setup:
            return {"error": f"template: {setup['error']}", "world_seed": world}
    store = WORK / f"{name}-{world}.db"
    _copy_store(template, store)
    rep = dict(spawn(measure + ["--store", str(store)], world, deadline), world_seed=world)
    if setup is not None:
        rep["setup_s"] = setup["setup_s"]
    return rep


def run_workload(name: str, seed: int, reps: int, seconds: float, traced: bool) -> dict:
    """The repetitions of one workload (plus its traced one)."""
    deadline = time.perf_counter() + WORKLOAD_DEADLINE_S
    result: dict = {"reps": []}
    measured = 0.0
    while (len(result["reps"]) < reps or measured < seconds) and time.perf_counter() < deadline:
        world = seed + len(result["reps"]) * WORLD_STRIDE
        rep = run_rep(name, world, deadline)
        result["reps"].append(rep)
        measured += rep.get("wall_s", 0.0)
        print(f"  {name} world {world}: " + (
            rep["error"] if "error" in rep else
            f"wall {rep['wall_s']:.2f}s setup {rep['setup_s']:.2f}s "
            f"measure {rep['measure_s']:.2f}s rss {rep['peak_rss_mb']:.0f}MiB"
        ), file=sys.stderr, flush=True)
    if traced:
        trace_path = RESULTS / f"trace_{name}.jsonl"
        rep = run_rep(name, seed, deadline, trace_out=trace_path)
        result["traced"] = rep
        if "error" not in rep:
            result["trace"] = str(trace_path.relative_to(ROOT))
    return result


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def _rep_problem(name: str, rep: dict) -> Optional[str]:
    """Why one repetition failed on its own, or ``None``."""
    if "error" in rep:
        return rep["error"]
    if rep["degraded"] or rep["stage_failures"]:
        return f"stage failure: {rep['stage_failures']}"
    if rep["quarantined"] != rep["injected"]:
        return f"quarantined {rep['quarantined']} != injected {rep['injected']}"
    if name == "hostile" and rep["injected"] == 0:
        return "hostile payloads injected nothing"
    return None


def output_key(name: str, world: int) -> str:
    """Runs with equal keys observe one world and must agree bit for bit.

    Serial, threaded and store-delta runs of a world are one key
    (DESIGN.md §10/§12); fault and payload profiles make another.
    """
    config = WORKLOADS[name]["config"]
    profiles = [config.get("fault_profile"), config.get("payload_profile")]
    return f"{SCALE}/{profiles[0]}/{profiles[1]}/{world}"


def check(results: Dict[str, dict], known: Dict[str, list]) -> None:
    """Mark failed repetitions in place (``rep["failure"]``).

    ``known`` maps :func:`output_key` to the (crawl digest, measurement
    view) first seen for it -- in this invocation or, from
    ``outputs.json``, in an earlier one of the same sources -- and
    gains every new pair.  A repetition whose pair differs fails: the
    same world must give the same output whichever workload, repetition
    or invocation measured it.
    """
    for name, result in results.items():
        reps = result["reps"] + ([result["traced"]] if "traced" in result else [])
        for rep in reps:
            problem = _rep_problem(name, rep)
            if problem is None:
                pair = [rep["crawl_digest"], rep["view_sha256"]]
                if known.setdefault(output_key(name, rep["world_seed"]), pair) != pair:
                    problem = "crawl digest or measurement view differs from another run of this world"
            if problem:
                rep["failure"] = problem


def load_known(sources: str) -> Dict[str, list]:
    try:
        with open(OUTPUTS_PATH, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}
    return dict(saved["outputs"]) if saved.get("sources") == sources else {}


def rep_values(rep: dict) -> Dict[str, float]:
    """One repetition's end-to-end metrics."""
    return {
        "wall_s": rep["wall_s"],
        "setup_s": rep["setup_s"],
        "measure_s": rep["measure_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "images_per_s": rep["images_downloaded"] / rep["wall_s"],
    }


def by_world(result: dict) -> Dict[int, Dict[str, float]]:
    """End-to-end metrics of each successful repetition, keyed by world."""
    return {r["world_seed"]: rep_values(r) for r in result["reps"] if "failure" not in r}


def metrics_of(result: dict) -> Dict[str, dict]:
    """Median and quartiles of every end-to-end metric of one workload."""
    reps = list(by_world(result).values())
    if not reps:
        return {}
    return {
        name: dict(summarize([r[name] for r in reps]), unit=unit)
        for name, (unit, _) in E2E_METRICS.items()
    }


def layers_of(result: dict) -> Optional[Dict[str, float]]:
    """The traced repetition's layer metrics plus ``trace_overhead``.

    The overhead compares the traced run with the untraced run of the
    same world (repetition 0).
    """
    traced = result.get("traced")
    if not traced or "failure" in traced:
        return None
    layers = dict(traced["layers"])
    same_world = [r for r in result["reps"]
                  if r["world_seed"] == traced["world_seed"] and "failure" not in r]
    if same_world:
        layers["trace_overhead"] = traced["wall_s"] / same_world[0]["wall_s"] - 1.0
    return layers


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_table(record: dict) -> None:
    fp = record["fingerprint"]
    print(f"seed {record['seed']}, scale {record['scale']}, "
          f"{fp['cpu_count']} CPU(s) {fp['cpu_model']}")
    print(f"{'workload':<11} {'metric':<13} {'unit':<9} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3}")
    for name, workload in record["workloads"].items():
        for metric, row in workload["metrics"].items():
            print(f"{name:<11} {metric:<13} {row['unit']:<9} {row['median']:>10.4g} "
                  f"{row['q1']:>10.4g} {row['q3']:>10.4g} {row['n']:>3}")
        print(f"{name:<11} {'failed_frac':<13} {'fraction':<9} "
              f"{workload['failed'] / workload['attempted']:>10.4g}")
        for rep in workload["reps"] + [workload.get("traced", {})]:
            if "failure" in rep:
                print(f"{name:<11} FAILED world {rep['world_seed']}: {rep['failure']}")
    for name, workload in record["workloads"].items():
        layers = workload.get("layers")
        if not layers:
            continue
        print(f"-- layers: {name} ({workload.get('trace')}) --")
        for metric, value in layers.items():
            # Layers this workload never entered (store.* off the store
            # workload) stay out of the table.
            if layers.get(f"{metric.rsplit('.', 1)[0]}.calls", value):
                print(f"  {metric:<34} {value:>12.6g}")


def result_line(record: dict, spec: dict, trace: bool) -> dict:
    """The closing JSON line: BENCHMARK.json's metrics for this pass."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    single = len(record["workloads"]) == 1
    metrics = {}
    for name, workload in record["workloads"].items():
        values = (workload.get("layers") or {}) if trace else {
            metric: row["median"] for metric, row in workload["metrics"].items()
        }
        for metric in section:
            if metric["name"] in values:
                key = metric["name"] if single else f"{name}.{metric['name']}"
                metrics[key] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": record["correct"],
        "attempted": sum(w["attempted"] for w in record["workloads"].values()),
        "failed": sum(w["failed"] for w in record["workloads"].values()),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def compare(a: dict, b: dict, spec: dict) -> tuple:
    """Rows of A-vs-B per workload and end-to-end metric, plus a verdict.

    Worlds differ more than runs do, so repetitions are paired by world:
    a metric's change is the median, over the worlds both records
    measured, of B's value over A's minus one, signed so that positive
    is worse.  A gated metric regresses when its change exceeds its
    ``BENCHMARK.json`` bound.  It is ``unresolved`` when the per-world
    changes spread wider than the bound (their interquartile range),
    unless every one of them is an improvement.  Metrics without a
    bound are shown as ``info``.  Raises ``ValueError`` when a workload
    of both records shares no world.
    """
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows, regressed = [], False
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        va, vb = by_world(wa), by_world(wb)
        worlds = sorted(va.keys() & vb.keys())
        if not worlds:
            raise ValueError(f"{name}: the records share no measured world")
        for key, (_, better) in E2E_METRICS.items():
            sign = -1.0 if better == "higher" else 1.0
            changes = [sign * (vb[w][key] / va[w][key] - 1.0) for w in worlds]
            change = statistics.median(changes)
            bound = bounds[key]["bound"] if key in bounds else None
            if bound is None:
                verdict = "info"
            elif spread_of(changes) > bound and not all(c < 0 for c in changes):
                verdict = "unresolved"
            elif change > bound:
                verdict, regressed = "REGRESSION", True
            else:
                verdict = "ok"
            rows.append((name, key, wa["metrics"][key], wb["metrics"][key],
                         change, bound, verdict))
    return rows, regressed


def spread_of(changes: Sequence[float]) -> float:
    """Interquartile range of paired relative changes (0 for one pair)."""
    summary = summarize(changes)
    return summary["q3"] - summary["q1"]


def run_compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    with open(path_a, "r", encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, "r", encoding="utf-8") as fh:
        b = json.load(fh)
    fa, fb = a["fingerprint"], b["fingerprint"]
    for key in ("cpu_model", "cpu_count"):
        if fa.get(key) != fb.get(key):
            print(f"refusing to compare: {key} differs ({fa.get(key)!r} vs {fb.get(key)!r})")
            return 2
    try:
        rows, regressed = compare(a, b, spec)
    except ValueError as exc:
        print(f"refusing to compare: {exc}")
        return 2
    print(f"{'workload':<11} {'metric':<13} {'A median [q1, q3]':>28} "
          f"{'B median [q1, q3]':>28} {'worse':>8} {'bound':>6}  verdict")
    for name, key, ra, rb, change, bound, verdict in rows:
        sides = [f"{r['median']:.4g} [{r['q1']:.4g}, {r['q3']:.4g}]" for r in (ra, rb)]
        shown = "-" if bound is None else f"{bound:.0%}"
        print(f"{name:<11} {key:<13} {sides[0]:>28} {sides[1]:>28} "
              f"{change:>+8.1%} {shown:>6}  {verdict}")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return run_compare(argv[1], argv[2])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--reps", type=int, default=MIN_REPS,
                        help=f"repetitions (worlds) per workload (default {MIN_REPS})")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding repetitions until this much wall time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced repetition per workload and "
                             "print the layer metrics last")
    args = parser.parse_args(argv)
    traced = args.trace == 1

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = args.workload or list(WORKLOADS)

    # SIGTERM unwinds like ^C, so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        results = {}
        for name in names:
            print(f"{name}: seed {args.seed}, scale {SCALE}", file=sys.stderr, flush=True)
            results[name] = run_workload(name, args.seed, args.reps, args.seconds, traced)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    sources = sources_sha256()
    known = load_known(sources)
    check(results, known)
    OUTPUTS_PATH.write_text(json.dumps({"sources": sources, "outputs": known}) + "\n",
                            encoding="utf-8")

    record = {
        "kind": "repro.bench.e2e",
        "created_unix": time.time(),
        "fingerprint": fingerprint(),
        "sources_sha256": sources,
        "seed": args.seed,
        "scale": SCALE,
        "reps": args.reps,
        "traced": traced,
        "workloads": {},
    }
    for name, result in results.items():
        reps = result["reps"] + ([result["traced"]] if "traced" in result else [])
        workload = {
            "attempted": len(reps),
            "failed": sum("failure" in r for r in reps),
            "metrics": metrics_of(result),
            **result,
        }
        layers = layers_of(result)
        if layers is not None:
            workload["layers"] = layers
        record["workloads"][name] = workload
    record["correct"] = all(
        w["failed"] == 0 and (not traced or "layers" in w)
        for w in record["workloads"].values()
    )
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(record["created_unix"]))
    out = RESULTS / f"e2e_{'-'.join(names)}_seed{args.seed}_{stamp}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print_table(record)
    print(f"record: {out.relative_to(ROOT)}")
    if not all(w["metrics"] for w in record["workloads"].values()):
        print("run.py: a workload has no successful repetition", file=sys.stderr)
        return 1
    print(json.dumps(result_line(record, spec, trace=traced)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
