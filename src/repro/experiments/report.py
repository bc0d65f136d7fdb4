"""Markdown analysis reports.

:func:`analysis_report` runs several analysis methods on one system and
renders a self-contained markdown document: system inventory, per-method
response-time bounds, verdicts, and (optionally) a simulation
cross-check taken from the audit's soundness check
(:func:`repro.audit.checks.check_results`).  Used by
``python -m repro report`` and handy for attaching to design reviews.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..analysis.horizon import HorizonConfig
from ..model.system import System

__all__ = ["analysis_report"]


def _fmt(x: float) -> str:
    if x != x:
        return "nan"
    if math.isinf(x):
        return "inf"
    return f"{x:.4g}"


def analysis_report(
    system: System,
    methods: Sequence[str] = ("SPP/Exact",),
    simulate_check: bool = True,
    horizon: Optional[HorizonConfig] = None,
    title: str = "Response-time analysis report",
) -> str:
    """Render a markdown report for the system under the given methods."""
    # Imported here: the audit package adds its modules to every import
    # of ``repro.experiments``.
    from ..audit.checks import check_results, make_audit_analyzer

    lines: List[str] = [f"# {title}", ""]

    # --- system inventory -------------------------------------------------
    lines += ["## System", ""]
    lines += [
        "| job | arrivals | deadline | route (processor : wcet : prio) |",
        "|---|---|---|---|",
    ]
    for job in system.jobs:
        route = " -> ".join(
            f"{s.processor}:{_fmt(s.wcet)}"
            + (f":{s.priority}" if s.priority is not None else "")
            for s in job.subjobs
        )
        lines.append(
            f"| {job.job_id} | {type(job.arrivals).__name__} | "
            f"{_fmt(job.deadline)} | {route} |"
        )
    lines += ["", "Processor policies: "
              + ", ".join(f"{p}={system.policy(p).value}" for p in system.processors),
              ""]
    util = {p: system.utilization(p) for p in system.processors}
    lines += [
        "Long-run utilization: "
        + ", ".join(f"{p}={_fmt(u)}" for p, u in util.items()),
        "",
    ]

    # --- analyses ----------------------------------------------------------
    lines += ["## Worst-case end-to-end response-time bounds", ""]
    header = "| job | deadline |" + "".join(f" {m} |" for m in methods)
    lines += [header, "|---|---|" + "---|" * len(methods)]
    analyzers = {}
    results = {}
    for m in methods:
        try:
            analyzers[m] = make_audit_analyzer(m, horizon)
            results[m] = analyzers[m].analyze(system)
        except Exception as exc:  # noqa: BLE001 - report the failure inline
            results[m] = exc
    for job in system.jobs:
        row = f"| {job.job_id} | {_fmt(job.deadline)} |"
        for m in methods:
            res = results[m]
            if isinstance(res, Exception):
                row += " n/a |"
            else:
                r = res.jobs[job.job_id]
                mark = "" if r.meets_deadline else " **MISS**"
                row += f" {_fmt(r.wcrt)}{mark} |"
        lines.append(row)
    lines.append("")
    for m in methods:
        res = results[m]
        if isinstance(res, Exception):
            lines.append(f"* `{m}`: not applicable ({res})")
    if any(isinstance(r, Exception) for r in results.values()):
        lines.append("")

    # --- verdicts ----------------------------------------------------------
    lines += ["## Verdicts", ""]
    for m, res in results.items():
        if isinstance(res, Exception):
            continue
        lines.append(
            f"* `{m}`: schedulable={res.schedulable} "
            f"(drained={res.drained}, converged={res.converged})"
        )
    lines.append("")

    # --- simulation cross-check ---------------------------------------------
    analyzed = [
        (analyzers[m], res)
        for m, res in results.items()
        if not isinstance(res, Exception)
    ]
    if simulate_check and analyzed:
        check = check_results(system, analyzed, sim_cap=None)
        lines += ["## Simulation cross-check", ""]
        lines += [
            "Each cell: the bound vs the worst simulated response "
            "compared with it, then the verdict.",
            "",
            "| job |" + "".join(f" {m} |" for m in methods),
            "|---|" + "---|" * len(methods),
        ]
        for job in system.jobs:
            row = f"| {job.job_id} |"
            for m in methods:
                worst = check.worst.get(m, {})
                if job.job_id not in worst:
                    row += " n/a |"
                    continue
                b = results[m].jobs[job.job_id].wcrt
                verdict = "ok" if check.holds(m, job.job_id) else "VIOLATION"
                row += f" {_fmt(b)} vs {_fmt(worst[job.job_id])} {verdict} |"
            lines.append(row)
        lines.append("")
    return "\n".join(lines)
