"""The crash-consistency kill matrix (DESIGN.md §13).

The tentpole invariant of the chaos harness: for every registered kill
site, SIGKILL-ing the pipeline subprocess at that site, then recovering
and re-running, converges **bit-identically** with a run that was never
killed — same crawl digest, same quarantine ledger, same measurement
view.  The crash site is chosen by pure ``(seed, site)`` hashing
(:func:`repro.chaos.chosen_hit`), so every crash here is reproducible.

Two legs:

* ``--mode store`` — an incremental epoch is killed mid-transaction;
  reopening the store must pass the integrity probe, the watermark must
  sit exactly at the previous epoch (or the new one, iff the kill landed
  *after* COMMIT), and re-running the epoch must equal a cold run.
* ``--mode crawl`` — a checkpointed crawl is killed around checkpoint
  saves and atomic replaces; the checkpoint file must stay loadable
  (never torn) and the resumed run must equal an uninterrupted one.
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
from repro.store import RunStore, verify_store
from repro.web.checkpoint import CrawlCheckpoint

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"

SEED = 7
SCALE = 0.005

#: Sites inside the store's epoch transaction fire once per epoch, so
#: the deterministic hit must be 1; the crawl/artifact sites fire on
#: every periodic checkpoint save and can land anywhere in 1..3.
SITE_MAX_HITS = {site: 1 if site.startswith("store.") else 3 for site in KILL_SITES}

STORE_SITES = tuple(s for s in KILL_SITES if s.startswith("store."))
CRAWL_SITES = tuple(s for s in KILL_SITES if not s.startswith("store."))

def driver_cmd(*args):
    return [sys.executable, "-m", "repro.chaos.driver", "--seed", str(SEED),
            "--scale", str(SCALE), *args]


def run_driver(args, chaos_site=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(ENV_SITE, None)
    if chaos_site is not None:
        env[ENV_SITE] = chaos_site
        env[ENV_SEED] = str(SEED)
        env[ENV_HIT] = str(chosen_hit(SEED, chaos_site, SITE_MAX_HITS[chaos_site]))
    return subprocess.run(
        driver_cmd(*args),
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


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
    proc = run_driver(["--mode", "store", "--store", str(path),
                       "--epoch", "2", "--epoch-total", "2"])
    return driver_json(proc)


@pytest.fixture(scope="module")
def epoch1_store(tmp_path_factory):
    """A cleanly committed epoch-1 store the kill tests copy from."""
    path = tmp_path_factory.mktemp("chaos-warm") / "warm.sqlite"
    proc = run_driver(["--mode", "store", "--store", str(path),
                       "--epoch", "1", "--epoch-total", "2"])
    driver_json(proc)
    return path


@pytest.fixture(scope="module")
def cold_crawl_json(tmp_path_factory):
    """An uninterrupted, checkpoint-free crawl run."""
    proc = run_driver(["--mode", "crawl"],
                      cwd=tmp_path_factory.mktemp("chaos-crawl-cold"))
    return driver_json(proc)


class TestStoreKillMatrix:
    """SIGKILL inside the epoch transaction; recover; converge."""

    @pytest.mark.parametrize("site", STORE_SITES)
    def test_kill_recover_rerun_equals_cold(
        self, tmp_path, site, epoch1_store, cold_store_json
    ):
        store_path = copy_store(epoch1_store, tmp_path / "killed.sqlite")
        epoch2 = ["--mode", "store", "--store", str(store_path),
                  "--epoch", "2", "--epoch-total", "2"]

        killed = run_driver(epoch2, chaos_site=site)
        assert killed.returncode == -signal.SIGKILL, (
            f"expected SIGKILL death at {site}, got rc={killed.returncode}: "
            f"{killed.stderr}"
        )

        # The store must reopen clean: integrity probe passes, and the
        # watermark sits at a whole epoch — 1 unless the kill landed
        # after COMMIT, in which case epoch 2 is durably committed.
        report = verify_store(store_path)
        pipeline_epoch = report.watermarks.get("pipeline", {}).get("epoch")
        if site == "store.commit.after":
            assert pipeline_epoch == 2
        else:
            assert pipeline_epoch == 1, (
                f"kill at {site} left a partial watermark: {report.watermarks}"
            )

        recovered = driver_json(run_driver(epoch2))
        assert recovered["crawl_digest"] == cold_store_json["crawl_digest"]
        assert recovered["quarantine"] == cold_store_json["quarantine"]
        assert recovered["measurement"] == cold_store_json["measurement"]

    def test_kill_mid_first_epoch_rolls_back_to_empty(self, tmp_path, cold_store_json):
        """With no committed prefix, death mid-epoch leaves a virgin store."""
        store_path = tmp_path / "virgin.sqlite"
        args = ["--mode", "store", "--store", str(store_path),
                "--epoch", "1", "--epoch-total", "2"]
        killed = run_driver(args, chaos_site="store.commit.before")
        assert killed.returncode == -signal.SIGKILL

        with RunStore(store_path) as store:
            assert store.watermark("pipeline") is None
            assert store.runs() == []

        driver_json(run_driver(args))
        recovered = driver_json(run_driver(
            ["--mode", "store", "--store", str(store_path),
             "--epoch", "2", "--epoch-total", "2"]))
        assert recovered["crawl_digest"] == cold_store_json["crawl_digest"]
        assert recovered["measurement"] == cold_store_json["measurement"]


class TestCrawlKillMatrix:
    """SIGKILL around checkpoint saves; resume; converge."""

    @pytest.mark.parametrize("site", CRAWL_SITES)
    def test_kill_resume_equals_uninterrupted(self, tmp_path, site, cold_crawl_json):
        ckpt = tmp_path / "crawl.checkpoint.json"
        args = ["--mode", "crawl", "--checkpoint", str(ckpt)]

        killed = run_driver(args, chaos_site=site, cwd=tmp_path)
        assert killed.returncode == -signal.SIGKILL, (
            f"expected SIGKILL death at {site}, got rc={killed.returncode}: "
            f"{killed.stderr}"
        )

        # Whatever instant the process died at, the checkpoint is either
        # absent or a complete, loadable snapshot — never torn.
        CrawlCheckpoint.load(ckpt)

        resumed = driver_json(run_driver(args, cwd=tmp_path))
        assert resumed["crawl_digest"] == cold_crawl_json["crawl_digest"]
        assert resumed["quarantine"] == cold_crawl_json["quarantine"]
        assert resumed["measurement"] == cold_crawl_json["measurement"]


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
        hits = {chosen_hit(seed, "crawl.checkpoint.saved") for seed in range(64)}
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
        kill_point("crawl.checkpoint.saved")
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
            ENV_SITE: "crawl.checkpoint.saved",
            ENV_SEED: "9",
            ENV_ACTION: "raise",
        })
        assert monkey.target_hit == chosen_hit(9, "crawl.checkpoint.saved")
