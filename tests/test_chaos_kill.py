"""The crash-consistency kill matrix (DESIGN.md §13).

The tentpole invariant of the chaos harness: for every registered kill
site, SIGKILL-ing the pipeline subprocess at that site, then recovering
and re-running, converges **bit-identically** with a run that was never
killed — same crawl digest, same quarantine ledger, same measurement
view.  The crash site is chosen by pure ``(seed, site)`` hashing
(:func:`repro.chaos.chosen_hit`), so every crash here is reproducible.

Two legs:

* store — an incremental epoch is killed mid-transaction; reopening
  the store must pass the integrity probe, the dataset watermark and
  the newest run must sit exactly at the previous epoch (or the new
  one, iff the kill landed *after* COMMIT), and re-running the epoch
  must equal a cold run.
* artifacts — ``repro run --trace-out`` is killed inside the atomic
  write of its trace; the file must be one complete trace, the old one
  or the new one, never torn.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import (
    ENV_ACTION,
    ENV_HIT,
    ENV_SEED,
    ENV_SITE,
    KILL_SITES,
    ChaosCrash,
    ChaosMonkey,
    chosen_hit,
    install,
    install_from_env,
    kill_point,
    uninstall,
)
from repro.obs.export import read_trace
from repro.store import RunStore, verify_store

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"

SEED = 7
SCALE = 0.005

#: Every site fires once per run here — a store site once per epoch,
#: an artifact site once per write (the run writes only its trace) — so
#: the deterministic hit is the first.
SITE_MAX_HITS = 1

STORE_SITES = tuple(s for s in KILL_SITES if s.startswith("store."))
ARTIFACT_SITES = tuple(s for s in KILL_SITES if s.startswith("artifact."))

def driver_cmd(*args):
    return [sys.executable, "-m", "repro.chaos.driver", "--seed", str(SEED),
            "--scale", str(SCALE), *args]


def run_module(cmd, chaos_site=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(ENV_SITE, None)
    if chaos_site is not None:
        env[ENV_SITE] = chaos_site
        env[ENV_SEED] = str(SEED)
        env[ENV_HIT] = str(chosen_hit(SEED, chaos_site, SITE_MAX_HITS))
    return subprocess.run(
        cmd,
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_driver(args, chaos_site=None, cwd=None):
    return run_module(driver_cmd(*args), chaos_site=chaos_site, cwd=cwd)


def driver_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def copy_store(src: Path, dst: Path) -> Path:
    shutil.copy(src, dst)
    for sidecar in ("-wal", "-shm"):
        side = Path(str(src) + sidecar)
        if side.exists():
            shutil.copy(side, Path(str(dst) + sidecar))
    return dst


@pytest.fixture(scope="module")
def cold_store_json(tmp_path_factory):
    """One uninterrupted cold run over the epoch-2 union."""
    path = tmp_path_factory.mktemp("chaos-cold") / "cold.sqlite"
    proc = run_driver(["--store", str(path), "--epoch", "2", "--epoch-total", "2"])
    return driver_json(proc)


@pytest.fixture(scope="module")
def epoch1_store(tmp_path_factory):
    """A cleanly committed epoch-1 store the kill tests copy from."""
    path = tmp_path_factory.mktemp("chaos-warm") / "warm.sqlite"
    proc = run_driver(["--store", str(path), "--epoch", "1", "--epoch-total", "2"])
    driver_json(proc)
    return path


def cli_trace_run(trace: Path, chaos_site=None):
    return run_module(
        [sys.executable, "-m", "repro.cli", "run", "--seed", str(SEED),
         "--scale", str(SCALE), "--trace-out", str(trace)],
        chaos_site=chaos_site, cwd=trace.parent,
    )


@pytest.fixture(scope="module")
def clean_trace(tmp_path_factory):
    """The trace of one uninterrupted ``repro run``, as bytes."""
    trace = tmp_path_factory.mktemp("chaos-trace") / "t.jsonl"
    proc = cli_trace_run(trace)
    assert proc.returncode == 0, proc.stderr
    return trace.read_bytes()


class TestStoreKillMatrix:
    """SIGKILL inside the epoch transaction; recover; converge."""

    @pytest.mark.parametrize("site", STORE_SITES)
    def test_kill_recover_rerun_equals_cold(
        self, tmp_path, site, epoch1_store, cold_store_json
    ):
        store_path = copy_store(epoch1_store, tmp_path / "killed.sqlite")
        epoch2 = ["--store", str(store_path), "--epoch", "2", "--epoch-total", "2"]

        killed = run_driver(epoch2, chaos_site=site)
        assert killed.returncode == -signal.SIGKILL, (
            f"expected SIGKILL death at {site}, got rc={killed.returncode}: "
            f"{killed.stderr}"
        )

        # The store must reopen clean: integrity probe passes, and the
        # watermark and the newest run sit at one whole epoch — 1 unless
        # the kill landed after COMMIT, in which case epoch 2 is durably
        # committed.
        report = verify_store(store_path)
        with RunStore(store_path) as store:
            newest_run = store.runs()[-1]["epoch"]
        expected = 2 if site == "store.commit.after" else 1
        assert (report.watermark["epoch"], newest_run) == (expected, expected), (
            f"kill at {site} left a partial epoch: watermark "
            f"{report.watermark}, newest run at epoch {newest_run}"
        )

        recovered = driver_json(run_driver(epoch2))
        assert recovered["crawl_digest"] == cold_store_json["crawl_digest"]
        assert recovered["quarantine"] == cold_store_json["quarantine"]
        assert recovered["measurement"] == cold_store_json["measurement"]

    def test_kill_mid_first_epoch_rolls_back_to_empty(self, tmp_path, cold_store_json):
        """With no committed prefix, death mid-epoch leaves a virgin store."""
        store_path = tmp_path / "virgin.sqlite"
        args = ["--store", str(store_path), "--epoch", "1", "--epoch-total", "2"]
        killed = run_driver(args, chaos_site="store.commit.before")
        assert killed.returncode == -signal.SIGKILL

        with RunStore(store_path) as store:
            assert store.watermark() is None
            assert store.runs() == []

        driver_json(run_driver(args))
        recovered = driver_json(run_driver(
            ["--store", str(store_path), "--epoch", "2", "--epoch-total", "2"]))
        assert recovered["crawl_digest"] == cold_store_json["crawl_digest"]
        assert recovered["measurement"] == cold_store_json["measurement"]


class TestArtifactKillMatrix:
    """SIGKILL inside an atomic artifact write; one whole file survives."""

    @pytest.mark.parametrize("site", ARTIFACT_SITES)
    def test_kill_leaves_one_trace(self, tmp_path, site, clean_trace):
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(clean_trace)

        killed = cli_trace_run(trace, chaos_site=site)
        assert killed.returncode == -signal.SIGKILL, (
            f"expected SIGKILL death at {site}, got rc={killed.returncode}: "
            f"{killed.stderr}"
        )

        # Whatever instant the process died at, the trace is one
        # complete file: the old one before the rename, the new one after.
        read_trace(trace, strict=True)
        tmp = trace.with_name(trace.name + ".tmp")
        if site == "artifact.tmp_written":
            assert trace.read_bytes() == clean_trace
            assert tmp.exists()  # the new trace, written but not renamed
        else:
            assert trace.read_bytes() != clean_trace
            assert not tmp.exists()


class TestKillSiteRegistry:
    def test_registry_matches_instrumented_sites(self):
        """Every kill_point() call site is registered, and vice versa."""
        pattern = re.compile(r"kill_point\(\s*\"([^\"]+)\"")
        instrumented = set()
        for path in sorted((SRC_DIR / "repro").rglob("*.py")):
            instrumented.update(pattern.findall(path.read_text(encoding="utf-8")))
        assert instrumented == set(KILL_SITES)

    def test_sites_are_unique_and_namespaced(self):
        assert len(set(KILL_SITES)) == len(KILL_SITES)
        assert all("." in site for site in KILL_SITES)


class TestChosenHit:
    def test_pure_function_of_seed_and_site(self):
        for seed in (0, 7, 123456):
            for site in KILL_SITES:
                first = chosen_hit(seed, site)
                assert first == chosen_hit(seed, site)
                assert 1 <= first <= 3
                assert chosen_hit(seed, site, 1) == 1

    def test_spreads_across_hits(self):
        hits = {chosen_hit(seed, "artifact.replaced") for seed in range(64)}
        assert hits == {1, 2, 3}


class TestChaosMonkey:
    def teardown_method(self):
        uninstall()

    def test_fires_once_at_target_hit(self):
        monkey = install(ChaosMonkey("store.commit.before", action="raise", hit=2))
        kill_point("store.commit.before")  # hit 1: survives
        with pytest.raises(ChaosCrash):
            kill_point("store.commit.before")  # hit 2: fires
        kill_point("store.commit.before")  # hit 3: spent, survives
        assert monkey.fired

    def test_other_sites_do_not_trip_it(self):
        install(ChaosMonkey("store.commit.before", action="raise", hit=1))
        kill_point("store.commit.after")
        kill_point("artifact.replaced")

    def test_uninstalled_kill_point_is_inert(self):
        uninstall()
        kill_point("store.commit.before")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            ChaosMonkey("store.commit.before", action="explode")


class TestInstallFromEnv:
    def teardown_method(self):
        uninstall()

    def test_absent_env_installs_nothing(self):
        assert install_from_env({}) is None

    def test_unregistered_site_rejected(self):
        with pytest.raises(ValueError):
            install_from_env({ENV_SITE: "no.such.site"})

    def test_full_env_round_trip(self):
        monkey = install_from_env({
            ENV_SITE: "store.commit.before",
            ENV_SEED: "9",
            ENV_ACTION: "raise",
            ENV_HIT: "2",
        })
        assert monkey is not None
        assert monkey.site == "store.commit.before"
        assert monkey.action == "raise"
        assert monkey.target_hit == 2

    def test_hit_defaults_to_chosen_hit(self):
        monkey = install_from_env({
            ENV_SITE: "artifact.replaced",
            ENV_SEED: "9",
            ENV_ACTION: "raise",
        })
        assert monkey.target_hit == chosen_hit(9, "artifact.replaced")
