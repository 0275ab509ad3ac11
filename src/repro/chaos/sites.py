"""Named crash sites and the deterministic chaos monkey behind them.

Crash consistency (DESIGN.md §13) is only credible if it is *tested
against violent death*, not just clean exits.  This module threads
named **kill points** through every durability-critical moment of the
stack — atomic artifact replaces and the store's epoch commit — and
provides the :class:`ChaosMonkey` that a subprocess
test driver arms to die (``SIGKILL``), interrupt (``SIGINT``/
``SIGTERM``) or raise at exactly one deterministic hit of one site.

Determinism contract: which hit of a site fires is a pure function of
``(seed, site)`` via :func:`chosen_hit` — no wall clock, no randomness —
so a killed run can be reproduced bit-identically, and the
crash→recover→re-run equivalence asserted by ``tests/test_chaos_kill.py``
is a property, not a flake.

With no monkey installed, :func:`kill_point` is one ``None`` check; the
instrumented sites are per-write/per-commit (never per-record), so the
steady-state overhead is unmeasurable (gated < 2 % by
``benchmarks/bench_r5_crash.py``).
"""

from __future__ import annotations

import hashlib
import os
import signal
from typing import Dict, Optional

__all__ = [
    "KILL_SITES",
    "ChaosCrash",
    "ChaosMonkey",
    "chosen_hit",
    "install",
    "install_from_env",
    "kill_point",
    "uninstall",
]

#: Canonical ordered registry of every kill site threaded through the
#: stack.  Tests iterate this tuple to build the kill matrix; adding an
#: instrumented ``kill_point`` call with a new name requires adding it
#: here (asserted by ``tests/test_chaos_kill.py``).
KILL_SITES = (
    # Atomic artifact writes (repro.atomicio): the torn-write windows of
    # any trace/table/bench artifact — the temp file is fully written
    # but the target not yet replaced, and just after the rename.
    "artifact.tmp_written",
    "artifact.replaced",
    # Store epoch transaction (repro.store): mid-epoch, after each
    # logical write group, all inside the single uncommitted transaction.
    "store.dataset.appended",
    "store.memos.saved",
    "store.run.recorded",
    # After the run's telemetry-history insert (span summaries, metric
    # snapshot, funnel) — still inside the uncommitted
    # epoch transaction, so dying here must lose the history row too.
    "store.history.recorded",
    # The commit edge itself: dying one instant before the COMMIT must
    # lose the whole epoch; one instant after must keep all of it.
    "store.commit.before",
    "store.commit.after",
)

#: Environment knobs read by :func:`install_from_env` (set by the
#: subprocess chaos driver, honoured by ``repro.cli`` and
#: ``python -m repro.chaos.driver``).
ENV_SITE = "REPRO_CHAOS_KILL"
ENV_SEED = "REPRO_CHAOS_SEED"
ENV_ACTION = "REPRO_CHAOS_ACTION"
ENV_HIT = "REPRO_CHAOS_HIT"

_ACTIONS = ("kill", "sigint", "sigterm", "raise")


class ChaosCrash(BaseException):
    """In-process stand-in for process death (``action="raise"``).

    A ``BaseException`` so it cannot be absorbed by lenient stage
    boundaries or ``except Exception`` cleanup — exactly like a real
    ``SIGKILL``, nothing downstream of the kill point runs normally.
    """


def chosen_hit(seed: int, site: str, max_hits: int = 3) -> int:
    """The 1-based hit of ``site`` at which the monkey fires.

    Pure ``blake2b(seed, site)`` hashing — reproducing a crash needs
    only the ``(seed, site)`` pair.  Bounded by ``max_hits`` so sites
    hit many times per run (one hit per artifact written) still fire
    early.

    >>> chosen_hit(0, "store.commit.before") == chosen_hit(0, "store.commit.before")
    True
    >>> 1 <= chosen_hit(7, "artifact.replaced", 3) <= 3
    True
    """
    digest = hashlib.blake2b(
        f"{int(seed)}\x1f{site}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % max(1, int(max_hits)) + 1


class ChaosMonkey:
    """Counts hits per site; acts violently at one deterministic hit.

    ``action``:

    * ``"kill"``    — ``SIGKILL`` to our own pid: un-catchable death,
      the real crash the harness is about;
    * ``"sigint"`` / ``"sigterm"`` — deliver the catchable signal to
      ourselves at the site (deterministic: CPython runs the handler on
      the next bytecode boundary, i.e. before the kill point returns
      to meaningful work) — used to test graceful interruption;
    * ``"raise"``  — raise :class:`ChaosCrash` in-process, for tests
      that want the torn state without a subprocess.
    """

    def __init__(
        self,
        site: str,
        action: str = "kill",
        seed: int = 0,
        hit: Optional[int] = None,
    ):
        if action not in _ACTIONS:
            raise ValueError(f"unknown chaos action {action!r} (one of {_ACTIONS})")
        self.site = site
        self.action = action
        self.seed = int(seed)
        self.target_hit = int(hit) if hit is not None else chosen_hit(seed, site)
        self.counts: Dict[str, int] = {}
        self.fired = False

    def hit(self, site: str) -> None:
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        if self.fired or site != self.site or count != self.target_hit:
            return
        self.fired = True
        if self.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.action == "sigint":
            os.kill(os.getpid(), signal.SIGINT)
        elif self.action == "sigterm":
            os.kill(os.getpid(), signal.SIGTERM)
        else:
            raise ChaosCrash(f"chaos crash at {site} (hit {count})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChaosMonkey(site={self.site!r}, action={self.action!r}, "
            f"hit={self.target_hit})"
        )


#: The installed monkey; ``None`` keeps :func:`kill_point` a no-op.
_MONKEY: Optional[ChaosMonkey] = None


def kill_point(site: str) -> None:
    """Declare a named crash site.  Free when no monkey is installed."""
    if _MONKEY is not None:
        _MONKEY.hit(site)


def install(monkey: ChaosMonkey) -> ChaosMonkey:
    """Install ``monkey`` as the process-wide chaos monkey."""
    global _MONKEY
    _MONKEY = monkey
    return monkey


def uninstall() -> None:
    global _MONKEY
    _MONKEY = None


def install_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[ChaosMonkey]:
    """Arm the monkey from ``REPRO_CHAOS_*`` env vars, if present.

    Called by entry points (``repro.cli``, ``repro.chaos.driver``) so a
    parent test process can arm any subprocess purely through its
    environment.  Returns the installed monkey, or ``None`` when
    :data:`ENV_SITE` is unset.
    """
    env = os.environ if environ is None else environ
    site = env.get(ENV_SITE)
    if not site:
        return None
    if site not in KILL_SITES:
        raise ValueError(
            f"{ENV_SITE}={site!r} is not a registered kill site "
            f"(one of {', '.join(KILL_SITES)})"
        )
    hit_raw = env.get(ENV_HIT)
    return install(
        ChaosMonkey(
            site,
            action=env.get(ENV_ACTION, "kill"),
            seed=int(env.get(ENV_SEED, "0")),
            hit=int(hit_raw) if hit_raw else None,
        )
    )
