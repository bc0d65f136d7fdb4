"""System model: jobs, subjobs, processors, priorities, arrival processes."""

from .arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    LeakyBucketArrivals,
    PeriodicArrivals,
    SporadicArrivals,
    TraceArrivals,
)
from .io import (
    SystemFormatError,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
)
from .job import Job, JobSet, SubJob
from .priorities import (
    assign_priorities_by_key,
    assign_priorities_deadline_monotonic,
    assign_priorities_explicit,
    assign_priorities_proportional_deadline,
    assign_priorities_rate_monotonic,
)
from .system import PriorityError, SchedulingPolicy, System

__all__ = [
    "ArrivalProcess",
    "PeriodicArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "SporadicArrivals",
    "LeakyBucketArrivals",
    "Job",
    "SubJob",
    "JobSet",
    "PriorityError",
    "SchedulingPolicy",
    "System",
    "assign_priorities_by_key",
    "assign_priorities_proportional_deadline",
    "assign_priorities_deadline_monotonic",
    "assign_priorities_rate_monotonic",
    "assign_priorities_explicit",
    "SystemFormatError",
    "load_system",
    "save_system",
    "system_from_dict",
    "system_to_dict",
]
