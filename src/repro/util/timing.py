"""Wall-clock timing helpers used by the drivers and benchmark harness.

:class:`TimingBreakdown` mirrors the per-component accounting of the
paper's Table 3 (partitioning / GST construction / node sorting /
alignment / total).  Since the telemetry layer landed it is a thin
compatibility shim over a :class:`~repro.telemetry.registry.
MetricsRegistry`: component seconds live in ``span.<name>.seconds``
counters — the same counters :meth:`repro.telemetry.spans.Telemetry.span`
accumulates — so a breakdown handed the run's registry and the telemetry
export can never disagree.  Constructed bare it owns a private registry
and behaves exactly as it always did.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import phase_metric, phase_of

__all__ = ["Stopwatch", "TimingBreakdown"]


@dataclass
class Stopwatch:
    """A start/stop accumulating timer.

    ``elapsed`` accumulates across multiple start/stop cycles, which is what
    the component accounting needs (e.g. alignment time accrues over many
    master-slave interactions).
    """

    elapsed: float = 0.0
    _started_at: float | None = None

    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = time.perf_counter()

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("stopwatch not running")
        delta = time.perf_counter() - self._started_at
        self.elapsed += delta
        self._started_at = None
        return delta

    @property
    def running(self) -> bool:
        return self._started_at is not None


class TimingBreakdown:
    """Named accumulating timers, one per pipeline component — a view
    over ``span.<name>.seconds`` counters in a metrics registry."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    @property
    def components(self) -> dict[str, float]:
        """Component -> seconds, in first-recorded order."""
        return {
            phase: counter.value
            for key, counter in self.registry.counters.items()
            if (phase := phase_of(key)) is not None
        }

    @contextmanager
    def measure(self, name: str):
        """Context manager adding the enclosed wall time to ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def add(self, name: str, seconds: float) -> None:
        self.registry.inc(phase_metric(name), seconds)

    def get(self, name: str) -> float:
        return self.registry.get(phase_metric(name))

    @property
    def total(self) -> float:
        return sum(self.components.values())

    def as_row(
        self, order: list[str] | None = None, *, missing: str = "error"
    ) -> list[float]:
        """Render as a list of seconds in ``order`` (default: insertion
        order), with the grand total appended — the shape of one Table 3
        row.

        A name in ``order`` that was never recorded raises ``KeyError``
        (a silent 0.0 entry once hid misspelt component names in result
        tables); pass ``missing="zero"`` to zero-fill explicitly instead,
        for tables whose rows legitimately lack a component (e.g. the
        sequential driver has no "partitioning" phase).
        """
        if missing not in ("error", "zero"):
            raise ValueError(f"missing must be 'error' or 'zero', got {missing!r}")
        components = self.components
        names = order if order is not None else list(components)
        unknown = [n for n in names if n not in components]
        if unknown and missing == "error":
            raise KeyError(
                f"unknown timing component(s) {unknown!r}; recorded: "
                f"{sorted(components)} (pass missing='zero' to zero-fill)"
            )
        return [components.get(n, 0.0) for n in names] + [self.total]

    def merge(self, other: "TimingBreakdown") -> None:
        for name, seconds in other.components.items():
            self.add(name, seconds)

    def __repr__(self) -> str:  # keeps the old dataclass-ish repr useful
        return f"TimingBreakdown(components={self.components!r})"
