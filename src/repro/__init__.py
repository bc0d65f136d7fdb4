"""repro -- response-time analysis for distributed real-time systems.

A from-scratch reproduction of

    Chengzhi Li, Riccardo Bettati, Wei Zhao.
    "Response Time Analysis for Distributed Real-Time Systems with Bursty
    Job Arrivals."  ICPP 1998.

The package provides:

* :mod:`repro.curves` -- the cumulative-function (network-calculus style)
  algebra the analysis is built on;
* :mod:`repro.model` -- jobs, subjobs, processors, priority assignment and
  arrival processes;
* :mod:`repro.analysis` -- the paper's exact SPP analysis (Theorems 1--3),
  the approximate SPNP and FCFS analyses (Theorems 4--9), the Sun & Liu
  holistic baseline (SPP/S&L) and the fixed-point extension for cyclic
  systems;
* :mod:`repro.sim` -- a discrete-event simulator used to validate that the
  analytic bounds dominate observed response times;
* :mod:`repro.workloads` -- the paper's job-shop topology and the random
  workloads of Eqs. 24--28;
* :mod:`repro.experiments` -- admission-probability experiments reproducing
  Figures 3 and 4;
* :mod:`repro.batch` -- the parallel batch-analysis engine every bulk
  caller (sweeps, figure runners, the ``batch`` CLI) runs on.
"""

from .curves import Curve
from .model import (
    ArrivalProcess,
    BurstyArrivals,
    Job,
    JobSet,
    LeakyBucketArrivals,
    PeriodicArrivals,
    SchedulingPolicy,
    SubJob,
    System,
    TraceArrivals,
    assign_priorities_proportional_deadline,
)
from .analysis import (
    METHODS,
    AdmissionController,
    AnalysisResult,
    Analyzer,
    CompositionalAnalysis,
    EndToEndResult,
    FcfsApproxAnalysis,
    FixpointAnalysis,
    HolisticSPPAnalysis,
    SppApproxAnalysis,
    SppExactAnalysis,
    SpnpApproxAnalysis,
    StationaryAnalysis,
    analyze,
    is_schedulable,
    make_analyzer,
)
from .batch import BatchEngine, BatchItem, BatchReport

__version__ = "1.2.0"

__all__ = [
    "Curve",
    "Job",
    "SubJob",
    "JobSet",
    "System",
    "SchedulingPolicy",
    "ArrivalProcess",
    "PeriodicArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "LeakyBucketArrivals",
    "assign_priorities_proportional_deadline",
    "AnalysisResult",
    "EndToEndResult",
    "SppExactAnalysis",
    "SppApproxAnalysis",
    "SpnpApproxAnalysis",
    "FcfsApproxAnalysis",
    "HolisticSPPAnalysis",
    "CompositionalAnalysis",
    "FixpointAnalysis",
    "StationaryAnalysis",
    "AdmissionController",
    "Analyzer",
    "METHODS",
    "analyze",
    "is_schedulable",
    "make_analyzer",
    "BatchEngine",
    "BatchItem",
    "BatchReport",
    "__version__",
]
