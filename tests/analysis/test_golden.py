"""Golden-result pin for the default (no-compaction) analysis path.

The performance layer introduced with ``AnalysisOptions`` (curve
compaction) must be invisible when it is switched off:
``make_analyzer(method)`` with no options has to produce byte-identical
results to the pre-layer code.  This test runs every registered method
over a small deterministic zoo of systems and compares the
JSON-serialized results against a checked-in golden file.
The zoo's ``trace`` case gives every job a long Poisson release trace, so
its lowest-priority hops sum the step envelopes of seven jobs.

Regenerate (only when an *intentional* default-path change lands) with::

    PYTHONPATH=src python tests/analysis/test_golden.py --regen

and explain the regeneration in the commit message.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import METHODS, make_analyzer
from repro.model import (
    Job,
    JobSet,
    System,
    TraceArrivals,
    assign_priorities_proportional_deadline,
)
from repro.workloads import (
    ShopTopology,
    generate_aperiodic_jobset,
    generate_periodic_jobset,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "default_results.json"

#: (name, generator kind, topology, n_jobs, utilization, policies, seed)
CASES = [
    ("periodic_spp", "periodic", (1, 2), 3, 0.5, "spp", 101),
    ("periodic_fcfs", "periodic", (2, 1), 3, 0.45, "fcfs", 202),
    ("periodic_mixed", "periodic", (2, 2), 4, 0.55, "mixed", 303),
    ("bursty_spp", "aperiodic", (1, 2), 3, 0.4, "spp", 404),
    ("bursty_spnp", "aperiodic", (2, 1), 3, 0.5, "spnp", 505),
    ("trace_chain_spp", "trace", (2, 1), 8, 0.5, "spp", 606),
]

#: Releases per job in the ``trace`` cases.
TRACE_INSTANCES = 150


def _trace_jobset(topology, n_jobs, utilization, rng) -> JobSet:
    """Jobs released by Poisson traces through slot 0 of every stage.

    Release gaps have mean 1 and WCETs mean ``utilization / n_jobs``, so
    the jobs load every processor on the route to ``utilization`` on
    average, in bursts.
    """
    route = [topology.processor(s, 0) for s in range(topology.n_stages)]
    jobs = []
    for j in range(n_jobs):
        wcets = rng.uniform(0.5, 1.5, len(route)) * utilization / n_jobs
        releases = np.cumsum(rng.exponential(1.0, TRACE_INSTANCES))
        jobs.append(
            Job.build(
                f"T{j + 1}",
                list(zip(route, wcets.tolist())),
                TraceArrivals(releases.tolist()),
                deadline=float(rng.uniform(2.0, 10.0)),
            )
        )
    return JobSet(jobs)


def _build_system(kind, topo, n_jobs, utilization, policies, seed) -> System:
    rng = np.random.default_rng(seed)
    topology = ShopTopology(*topo)
    if kind == "periodic":
        job_set = generate_periodic_jobset(
            topology, n_jobs, utilization, deadline_factor=3.0, rng=rng
        )
    elif kind == "trace":
        job_set = _trace_jobset(topology, n_jobs, utilization, rng)
    else:
        job_set = generate_aperiodic_jobset(
            topology,
            n_jobs,
            utilization,
            deadline_mean=3.0,
            deadline_variance=9.0,
            rng=rng,
        )
    if policies == "mixed":
        procs = sorted(job_set.processors)
        cycle = ("spp", "spnp", "fcfs")
        policy_map = {p: cycle[i % 3] for i, p in enumerate(procs)}
    else:
        policy_map = policies
    assign_priorities_proportional_deadline(job_set)
    return System(job_set, policies=policy_map)


def _compute(case_name: str):
    """Analysis results (as plain dicts) of every method on one case."""
    params = next(c for c in CASES if c[0] == case_name)
    out = {}
    for method in sorted(METHODS):
        system = _build_system(*params[1:])
        try:
            result = make_analyzer(method).analyze(system)
        except Exception as exc:  # method legitimately rejects the system
            out[method] = {"error": type(exc).__name__}
            continue
        # json round-trip so stored and recomputed floats compare equal
        out[method] = json.loads(json.dumps(result.to_dict()))
    return out


def _load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case_name", [c[0] for c in CASES])
def test_default_path_matches_golden(case_name):
    golden = _load_golden()
    assert case_name in golden, "regenerate the golden file (--regen)"
    current = _compute(case_name)
    for method in sorted(METHODS):
        assert current[method] == golden[case_name][method], (
            f"{case_name}/{method}: default-path result drifted from the "
            f"golden pin; if intentional, regenerate with --regen"
        )


def _regen() -> None:
    data = {name: _compute(name) for name, *_ in CASES}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
