"""Thread-safe named counters for long-lived components.

The interval sampler (:mod:`repro.telemetry.probes`) answers "what did
*one simulation* do over time"; :class:`CounterSet` answers "what has
*this process* done since it started" — cache hits, admissions, HTTP
requests.  It is the common currency the service subsystem
(:mod:`repro.service`) exports through ``/metricsz``.

Counters are monotonic numbers, safe to bump from any thread, and
:meth:`CounterSet.snapshot` returns a plain JSON-safe dict.
"""

from __future__ import annotations

import threading
from typing import Dict, Union

Number = Union[int, float]


class CounterSet:
    """A named bag of monotonic counters."""

    def __init__(self, **initial: Number) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Number] = dict(initial)

    def inc(self, name: str, amount: Number = 1) -> Number:
        """Add ``amount`` to counter ``name`` (created at 0); returns it."""
        if amount < 0:
            raise ValueError(f"counter {name!r}: increments must be >= 0")
        with self._lock:
            value = self._counters.get(name, 0) + amount
            self._counters[name] = value
            return value

    def get(self, name: str) -> Number:
        """Current value of counter ``name`` (0 if never touched)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, Number]:
        """JSON-safe copy of every counter at this instant."""
        with self._lock:
            return dict(self._counters)
