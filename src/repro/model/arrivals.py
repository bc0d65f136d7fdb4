"""Arrival processes: release-time generators for the first subjob.

The paper (Section 3.1) models each job as an infinite sequence of
instances with strictly increasing release times ``t_{k,1,1} < t_{k,1,2} <
...`` and explicitly removes the classical periodicity assumption.  An
:class:`ArrivalProcess` generates the concrete release times of the first
subjob within an analysis horizon, and reports the long-run arrival *rate*
used for utilization accounting and drain estimation.

Implemented processes:

* :class:`PeriodicArrivals` -- Eq. 25, ``t_m = offset + (m-1) * period``;
* :class:`BurstyArrivals` -- Eq. 27,
  ``t_m = (1/x) * sqrt(x^2 + (m-1)^2) - 1``, a front-loaded burst whose
  inter-arrival times grow monotonically toward the asymptotic period
  ``1/x``;
* :class:`TraceArrivals` -- a finite, explicit release-time trace;
* :class:`SporadicArrivals` -- the densest trace compatible with a minimum
  inter-arrival time (the classical sporadic worst case);
* :class:`LeakyBucketArrivals` -- the densest trace compatible with a Cruz
  ``(sigma, rho)`` envelope: ``t_m = max(0, (m - sigma) / rho)``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "ArrivalProcess",
    "PeriodicArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "SporadicArrivals",
    "LeakyBucketArrivals",
]


class ArrivalProcess(abc.ABC):
    """Generator of release times for a job's first subjob."""

    @abc.abstractmethod
    def release_times(self, t_end: float) -> np.ndarray:
        """All release times in ``[0, t_end)``, strictly increasing."""

    @property
    @abc.abstractmethod
    def rate(self) -> float:
        """Long-run arrivals per unit time (0 for finite traces)."""

    def count_by(self, t: float) -> int:
        """Number of instances released in ``[0, t]`` (arrival function)."""
        times = self.release_times(math.nextafter(t, math.inf))
        return int(np.count_nonzero(times <= t))

    def is_periodic(self) -> bool:
        """True if the process is strictly periodic (enables SPP/S&L)."""
        return False


@dataclass(frozen=True)
class PeriodicArrivals(ArrivalProcess):
    """Strictly periodic releases (paper Eq. 25 with an optional offset)."""

    period: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0 or not math.isfinite(self.period):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        if self.offset < 0 or not math.isfinite(self.offset):
            raise ValueError(
                f"offset must be non-negative and finite, got {self.offset}"
            )

    def release_times(self, t_end: float) -> np.ndarray:
        if t_end <= self.offset:
            return np.empty(0)
        n = int(math.ceil((t_end - self.offset) / self.period))
        times = self.offset + self.period * np.arange(n)
        return times[times < t_end]

    @property
    def rate(self) -> float:
        return 1.0 / self.period

    def is_periodic(self) -> bool:
        return True


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """The paper's bursty aperiodic process (Eq. 27).

    ``t_m = (1/x) * sqrt(x^2 + (m-1)^2) - 1`` for ``m = 1, 2, ...`` with
    ``x in (0, 1)``.  The first release is at ``t_1 = 0``; inter-arrival
    times start below the asymptotic period ``1/x`` and grow toward it, so
    the stream is a burst that relaxes into near-periodicity.
    """

    x: float

    def __post_init__(self) -> None:
        if not (0.0 < self.x) or not math.isfinite(self.x):
            raise ValueError(f"x must be positive and finite, got {self.x}")

    def release_times(self, t_end: float) -> np.ndarray:
        x = self.x
        if t_end <= 0:
            return np.empty(0)
        # Invert t_m < t_end: m - 1 < sqrt((x*(t_end+1))^2 - x^2).
        arg = (x * (t_end + 1.0)) ** 2 - x * x
        if arg <= 0:
            n = 1
        else:
            n = int(math.floor(math.sqrt(arg))) + 2
        m = np.arange(1, n + 1, dtype=float)
        times = np.sqrt(x * x + (m - 1.0) ** 2) / x - 1.0
        return times[times < t_end]

    @property
    def rate(self) -> float:
        # Inter-arrival times converge to 1/x from below.
        return self.x


@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """A finite explicit trace of release times."""

    times: Tuple[float, ...]

    def __init__(self, times: Sequence[float]) -> None:
        ts = tuple(sorted(float(t) for t in times))
        if not all(map(math.isfinite, ts)):
            raise ValueError("release times must be finite")
        if any(t < 0 for t in ts):
            raise ValueError("release times must be non-negative")
        if any(b - a <= 0 for a, b in zip(ts, ts[1:])):
            raise ValueError("release times must be strictly increasing")
        object.__setattr__(self, "times", ts)

    def release_times(self, t_end: float) -> np.ndarray:
        arr = np.asarray(self.times)
        return arr[arr < t_end]

    @property
    def rate(self) -> float:
        return 0.0


@dataclass(frozen=True)
class SporadicArrivals(ArrivalProcess):
    """Densest trace with a minimum inter-arrival time (worst case).

    For schedulability analysis the worst-case realization of a sporadic
    stream is the periodic one at the minimum gap; this class makes that
    substitution explicit and self-documenting.
    """

    min_gap: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.min_gap <= 0 or not math.isfinite(self.min_gap):
            raise ValueError(
                f"min_gap must be positive and finite, got {self.min_gap}"
            )
        if self.offset < 0 or not math.isfinite(self.offset):
            raise ValueError(
                f"offset must be non-negative and finite, got {self.offset}"
            )

    def release_times(self, t_end: float) -> np.ndarray:
        return PeriodicArrivals(self.min_gap, self.offset).release_times(t_end)

    @property
    def rate(self) -> float:
        return 1.0 / self.min_gap


@dataclass(frozen=True)
class LeakyBucketArrivals(ArrivalProcess):
    """Densest trace under a Cruz ``(sigma, rho)`` leaky-bucket envelope.

    The arrival function is upper-bounded by ``sigma + rho * t``; the
    densest compliant trace releases instance ``m`` at
    ``t_m = max(0, (m - sigma) / rho)``.  Instances inside the initial
    burst share release time 0 (the paper's strict-increase assumption is
    relaxed here; the analyses remain sound, see
    :func:`repro.curves.ops.fcfs_service_bounds`).
    """

    rho: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.rho <= 0 or not math.isfinite(self.rho):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if self.sigma < 1 or not math.isfinite(self.sigma):
            raise ValueError(
                f"sigma must be finite and at least 1 (first instance), "
                f"got {self.sigma}"
            )

    def release_times(self, t_end: float) -> np.ndarray:
        if t_end <= 0:
            return np.empty(0)
        n = int(math.floor(self.sigma + self.rho * t_end)) + 1
        m = np.arange(1, n + 1, dtype=float)
        times = np.maximum(0.0, (m - self.sigma) / self.rho)
        return times[times < t_end]

    @property
    def rate(self) -> float:
        return self.rho
