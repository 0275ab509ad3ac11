"""repro.chaos — deterministic kill-point chaos harness (DESIGN.md §13).

Crash consistency is a *tested* property here, not a hope: named kill
sites are threaded through atomic artifact writes and the store's
epoch commit; a subprocess driver
(``python -m repro.chaos.driver``) arms a :class:`ChaosMonkey` through
``REPRO_CHAOS_*`` env vars and dies violently (``SIGKILL``) at one
deterministic ``(seed, site)``-chosen hit.  The kill-matrix tests then
recover and re-run, asserting bit-identical convergence with an
uninterrupted run.

Public surface:

* :func:`kill_point` — declare a crash site (free when unarmed);
* :data:`KILL_SITES` — the canonical site registry;
* :class:`ChaosMonkey` / :func:`install` / :func:`uninstall` /
  :func:`install_from_env` / :func:`chosen_hit` — arming machinery;
* :class:`ChaosCrash` — the in-process crash exception
  (``action="raise"``);
* :class:`SignalInterrupt` / :func:`graceful_signals` — typed graceful
  SIGINT/SIGTERM handling with ``128 + signum`` exit codes.
"""

from .signals import SignalInterrupt, graceful_signals
from .sites import (
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

__all__ = [
    "ENV_ACTION",
    "ENV_HIT",
    "ENV_SEED",
    "ENV_SITE",
    "KILL_SITES",
    "ChaosCrash",
    "ChaosMonkey",
    "SignalInterrupt",
    "chosen_hit",
    "graceful_signals",
    "install",
    "install_from_env",
    "kill_point",
    "uninstall",
]
