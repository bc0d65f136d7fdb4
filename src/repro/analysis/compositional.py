"""The paper's single-pass approximate methods (Section 4.2).

**Theorem 4** bounds the end-to-end response time by a sum of per-hop
delays (Eq. 12): per hop, the analyzed subjob needs an *upper* bound on
its arrival function (earliest possible releases, Lemma 2) and a *lower*
bound on its departure function (latest possible completions, Lemma 1).

The hop bounds come from :mod:`repro.analysis.hopbounds`, whose
busy-window arguments strengthen the paper's literal Theorem 5/6 (SPNP)
and 7/8/9 (FCFS) constructions: the literal service-bound formulas
evaluate interference at the earliest-arrival envelope, which can
under-approximate the delay of realizations where an interferer arrives
later (our test suite demonstrates this against the simulator).  The
busy-window bounds are sound for *every* realization consistent with the
propagated envelopes and coincide with the paper's formulas in the
envelope-aligned case.  See DESIGN.md section 3.

The pipeline is one sweep per horizon round of the fixed-point engine of
:mod:`repro.analysis.fixpoint` in dependency order: the classes here only
name the method and refuse cyclic systems with
:class:`~repro.analysis.base.CyclicDependencyError`.
"""

from __future__ import annotations

from typing import Optional

from ..model.system import SchedulingPolicy
from .fixpoint import FixpointAnalysis
from .hopbounds import blocking_time
from .horizon import HorizonConfig

__all__ = [
    "CompositionalAnalysis",
    "SpnpApproxAnalysis",
    "FcfsApproxAnalysis",
    "SppApproxAnalysis",
    "blocking_time",
]

_NAMES = {
    SchedulingPolicy.SPNP: "SPNP/App",
    SchedulingPolicy.FCFS: "FCFS/App",
    SchedulingPolicy.SPP: "SPP/App",
    None: "Mixed/App",
}


class CompositionalAnalysis(FixpointAnalysis):
    """Theorem-4 pipeline honoring each processor's scheduling policy.

    The general engine behind the paper's ``SPNP/App`` and ``FCFS/App``
    methods; supports heterogeneous systems (different policies on
    different processors) out of the box.  Takes the parameters of
    :class:`~repro.analysis.fixpoint.FixpointAnalysis`; a forced policy
    names the method (the convenience subclasses mirror the paper's
    uniform experiments).
    """

    single_pass = True

    @property
    def name(self) -> str:
        return _NAMES[self.force_policy]


class SpnpApproxAnalysis(CompositionalAnalysis):
    """The paper's ``SPNP/App`` method (Section 4.2.2, hardened)."""

    def __init__(self, horizon: Optional[HorizonConfig] = None, **kw) -> None:
        super().__init__(horizon, force_policy=SchedulingPolicy.SPNP, **kw)


class FcfsApproxAnalysis(CompositionalAnalysis):
    """The paper's ``FCFS/App`` method (Section 4.2.3, hardened)."""

    def __init__(self, horizon: Optional[HorizonConfig] = None, **kw) -> None:
        super().__init__(horizon, force_policy=SchedulingPolicy.FCFS, **kw)


class SppApproxAnalysis(CompositionalAnalysis):
    """Per-hop (Theorem 4) bounds for preemptive static priority.

    Not one of the paper's four headline methods, but the natural
    preemptive member of the approximate family (zero blocking); used by
    the ablation benchmark comparing Theorem 1's exact telescoping against
    Theorem 4's per-hop summation.
    """

    def __init__(self, horizon: Optional[HorizonConfig] = None, **kw) -> None:
        super().__init__(horizon, force_policy=SchedulingPolicy.SPP, **kw)
