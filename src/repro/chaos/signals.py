"""Graceful SIGINT/SIGTERM handling for long-running measurement runs.

A measurement daemon is asked to stop far more often than it crashes.
:func:`graceful_signals` converts the two conventional stop signals
into a typed :class:`SignalInterrupt` raised at the next bytecode
boundary of the main thread, which unwinds through the same
crash-consistency machinery the chaos harness exercises:

* an open store epoch transaction rolls back — the store stays at the
  previous watermark, exactly as after a ``SIGKILL``;
* no artifact is left half-written: every artifact is written
  atomically (:mod:`repro.atomicio`), and a run's artifacts are written
  only after its pipeline has finished;
* the process exits with the conventional distinct code ``128 +
  signum`` (130 for SIGINT, 143 for SIGTERM), so supervisors can tell
  "asked to stop" from "failed".

``SignalInterrupt`` derives from ``BaseException`` (like
``KeyboardInterrupt``) so lenient stage boundaries and ``except
Exception`` cleanup cannot absorb a stop request.  Recovery is to run
the same command again: a run is rebuilt from its seed, so the re-run
is exactly the one that was interrupted.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from typing import Iterator, Tuple

__all__ = ["SignalInterrupt", "graceful_signals"]


class SignalInterrupt(BaseException):
    """A stop signal (SIGINT/SIGTERM) converted into an exception."""

    def __init__(self, signum: int):
        self.signum = int(signum)
        try:
            name = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = str(signum)
        super().__init__(f"interrupted by {name}")

    @property
    def exit_code(self) -> int:
        """The conventional ``128 + signum`` process exit code."""
        return 128 + self.signum


@contextmanager
def graceful_signals(
    signums: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[None]:
    """Raise :class:`SignalInterrupt` on ``signums`` inside the block.

    Previous handlers are restored on exit.  Installing handlers is
    only legal in the main thread; elsewhere (e.g. a test worker) the
    block is a no-op passthrough rather than an error.
    """
    previous = {}
    try:
        for signum in signums:
            previous[signum] = signal.signal(signum, _raise_interrupt)
    except ValueError:  # not the main thread: leave handlers alone
        previous = {}
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _raise_interrupt(signum, frame):
    raise SignalInterrupt(signum)
