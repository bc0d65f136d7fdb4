"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``analyze``
    Run a response-time analysis on a JSON system description::

        python -m repro analyze system.json --method SPP/Exact

``simulate``
    Execute the system in the discrete-event simulator::

        python -m repro simulate system.json --horizon 200

``validate``
    Analyze, then run the audit's soundness check on the result,
    reporting each bound and the worst simulated response compared
    with it::

        python -m repro validate system.json --method SPNP/App

``figures``
    Regenerate the paper's Figure 3 / Figure 4 admission-probability
    panels at a chosen scale::

        python -m repro figures --figure 3 --sets 100

``batch``
    Bulk-analyze JSON-lines work items through the batch engine
    (JSON-lines out, one result record per input item)::

        python -m repro batch items.jsonl --workers 4 --timeout 30

``shard``
    Split a JSONL campaign into deterministic shards and merge the shard
    artifacts back into one campaign result (byte-identical to an
    unsharded run)::

        python -m repro shard plan items.jsonl --shards 3 --out plan.json
        python -m repro shard merge --plan plan.json --records s*.jsonl --out all.jsonl

``audit``
    Randomized soundness audit: cross-validate every analysis against
    the simulator on fuzzed, fault-injected systems; shrink and save any
    counterexample::

        python -m repro audit --systems 200 --seed 42

``trace``
    Profile one analysis run under full observability: detail tracing,
    metrics and an in-memory curve cache, written as a Chrome/Perfetto
    trace plus a Prometheus text dump (see ``docs/observability.md``)::

        python -m repro trace system.json --trace-out trace.json

``obs``
    Observability utilities: ``obs watch STATUS_FILE`` renders the live
    status file a campaign publishes via ``--status``; ``obs report``
    combines run artifacts into one self-contained HTML report::

        python -m repro obs watch status.json --once
        python -m repro obs report --out report.html --status status.json

``methods``
    List the available analysis methods.

Exit status: 0 on success; 1 for a deadline miss, a failed batch item or
an analysis that did not drain; 2 for a usage error (``error: ...`` on
stderr: a flag value the command cannot run with, an input file that
cannot be read or parsed, or a system the method or the simulator
refuses -- a cyclic system for a single-pass method, SPP/Exact on a
non-SPP system, priorities missing or tied on a processor scheduled by
priority); 3 for a soundness violation (``audit``, ``batch --audit``, and
``validate``, which all run :func:`repro.audit.checks.check_results`).

``analyze`` and ``validate`` accept ``--json`` to emit the stable
machine-readable result schema documented in ``docs/api.md`` instead of
the human-readable summary.  ``analyze``, ``batch`` and ``audit`` accept
``--trace-out FILE`` / ``--metrics-out FILE`` to capture a Chrome trace
and/or Prometheus metrics of the run as a side effect.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from .analysis import METHODS, AnalysisError, AnalysisOptions, make_analyzer
from .batch import JournalError
from .cache import ShardError
from .model import PriorityError
from .model.io import load_system
from .sim import simulate as run_simulation

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """A flag value or input the command cannot run with; ``main`` exits 2.

    ``main`` prints every usage error as ``error: <message>``, so the
    message carries no prefix of its own.
    """


def _load_system(path: str):
    """The system described in the JSON file ``path``.

    Exit status 1 reports a deadline miss, so a file that cannot be read,
    is not JSON or does not describe a system raises :class:`_UsageError`
    instead of escaping as a traceback.  A ``SystemFormatError`` already
    lists every bad field and is reported as it is.
    """
    from .model.io import SystemFormatError

    try:
        return load_system(path)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _UsageError(f"cannot read {path}: {reason}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path}: invalid JSON: {exc}") from None
    except SystemFormatError as exc:
        raise _UsageError(str(exc)) from None


def _add_method_arg(p: argparse.ArgumentParser, help=None, **kw) -> None:
    """Attach ``--method``: one method, SPP/Exact unless ``kw`` says otherwise."""
    kw = kw or {"default": "SPP/Exact"}
    p.add_argument(
        "--method", choices=sorted(METHODS), metavar="METHOD", help=help, **kw
    )


def _add_compact_args(p: argparse.ArgumentParser, analyzes: bool = True) -> None:
    """Attach the sound-compaction / perf knobs (see docs/performance.md).

    ``analyzes=False`` keeps only the compaction flags, the ones that
    enter an item digest, on commands that run no analysis.
    """
    compact = p.add_mutually_exclusive_group()
    compact.add_argument(
        "--compact-budget",
        type=int,
        default=None,
        dest="compact_budget",
        metavar="N",
        help="cap interference curves at N breakpoints (sound: upper "
        "bounds round up, lower bounds round down); default: no compaction",
    )
    compact.add_argument(
        "--compact-max-error",
        type=float,
        default=None,
        dest="compact_max_error",
        metavar="EPS",
        help="compact curves to a certified max vertical error of EPS "
        "work units instead of a breakpoint budget",
    )
    if not analyzes:
        p.set_defaults(convergence=False)
        return
    p.add_argument(
        "--convergence",
        action="store_true",
        help="record per-sweep fixpoint convergence telemetry and attach "
        "it as a 'convergence' block to the result (telemetry only; "
        "bounds are unchanged)",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=None,
        dest="cache_size",
        metavar="N",
        help="in-process curve-cache capacity in entries (default: 4096 "
        "on batch and trace, none elsewhere); results are unchanged",
    )


def _options_from_args(args) -> Optional[AnalysisOptions]:
    """Build AnalysisOptions from parsed compact args; None = defaults.

    Returning ``None`` when no analysis knob was given keeps the default
    CLI path byte-identical to the pre-options pipeline.
    """
    if (
        args.compact_budget is None
        and args.compact_max_error is None
        and not args.convergence
    ):
        return None
    try:
        return AnalysisOptions(
            compact_budget=args.compact_budget,
            compact_max_error=args.compact_max_error,
            convergence=args.convergence,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cache_scope(args, default: Optional[int] = None):
    """Curve cache a single-run command analyzes under.

    ``--cache-size N`` runs the command under an in-memory curve cache of
    N entries; without it the command runs under ``default`` entries, or
    uncached when that is ``None``, which keeps the default path
    byte-identical to the uncached pipeline.  A bad size is refused here,
    before any work starts.
    """
    from contextlib import nullcontext

    from .curves import memo

    size = default if args.cache_size is None else args.cache_size
    if size is None:
        return nullcontext()
    if size <= 0:
        raise _UsageError(f"cache_size must be positive, got {size}")
    return memo.curve_cache(size)


def _observe(args, **kw):
    """Observability session of the run's trace, metrics and profile flags."""
    from .obs import observe

    return observe(
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
        profile_out=args.profile_out,
        profile_mem_out=args.profile_mem_out,
        **kw,
    )


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        default=None,
        dest="trace_out",
        metavar="FILE",
        help="write a Chrome/Perfetto trace of this run to FILE",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        dest="metrics_out",
        metavar="FILE",
        help="write a Prometheus text metrics dump of this run to FILE",
    )
    _add_profile_args(p)


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile-out",
        default=None,
        dest="profile_out",
        metavar="FILE",
        help="cProfile the run and write collapsed (flamegraph-ready) "
        "stacks to FILE",
    )
    p.add_argument(
        "--profile-mem-out",
        default=None,
        dest="profile_mem_out",
        metavar="FILE",
        help="sample allocations with tracemalloc and write collapsed "
        "stacks (weights in bytes) to FILE",
    )


def _add_status_args(p: argparse.ArgumentParser, interval: bool = True) -> None:
    """Attach ``--status`` and, unless ``interval=False``, its write interval."""
    p.add_argument(
        "--status",
        default=None,
        dest="status",
        metavar="FILE",
        help="publish live campaign status to FILE (atomic JSON; watch it "
        "with 'python -m repro obs watch FILE')",
    )
    if interval:
        p.add_argument(
            "--status-interval",
            type=float,
            default=1.0,
            dest="status_interval",
            metavar="S",
            help="minimum seconds between status-file writes (default: 1.0)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Response-time analysis for distributed real-time systems with "
            "bursty job arrivals (Li, Bettati & Zhao, ICPP 1998)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a JSON system description")
    p_an.add_argument("system", help="path to the system JSON file")
    _add_method_arg(p_an)
    p_an.add_argument(
        "--json", action="store_true", help="emit the machine-readable result schema"
    )
    _add_compact_args(p_an)
    _add_obs_args(p_an)

    p_sim = sub.add_parser("simulate", help="simulate a JSON system description")
    p_sim.add_argument("system")
    p_sim.add_argument("--horizon", type=float, default=100.0)
    p_sim.add_argument("--report-window", type=float, default=None)

    p_val = sub.add_parser("validate", help="analyze and simulate, compare")
    p_val.add_argument("system")
    _add_method_arg(p_val)
    p_val.add_argument(
        "--json", action="store_true", help="emit the machine-readable result schema"
    )
    _add_compact_args(p_val)

    p_fig = sub.add_parser("figures", help="regenerate Figure 3 / Figure 4")
    p_fig.add_argument("--figure", choices=["3", "4", "both"], default="both")
    p_fig.add_argument("--sets", type=int, default=30)
    p_fig.add_argument("--workers", type=int, default=None)

    p_bat = sub.add_parser(
        "batch", help="bulk-analyze JSON-lines work items (JSON-lines out)"
    )
    p_bat.add_argument(
        "input",
        nargs="?",
        default="-",
        help="JSONL file of work items ('-' = stdin); each line is either a "
        "system description or {'id':..., 'method':..., 'system': {...}}",
    )
    _add_method_arg(p_bat, "default method for items that do not name one")
    p_bat.add_argument("--workers", type=int, default=None)
    p_bat.add_argument("--chunksize", type=int, default=None)
    p_bat.add_argument(
        "--timeout", type=float, default=None, help="per-item timeout in seconds"
    )
    p_bat.add_argument(
        "--no-cache", action="store_true", help="disable curve-cache memoization"
    )
    p_bat.add_argument(
        "--audit",
        action="store_true",
        help="cross-validate each analyzed item against the simulator; "
        "violation records are added to the output lines",
    )
    p_bat.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="write-ahead journal: append each item's outcome to FILE "
        "(crash-safe JSONL) as soon as it is known",
    )
    p_bat.add_argument(
        "--resume",
        action="store_true",
        help="with --journal: resume an interrupted campaign, skipping "
        "items already journaled",
    )
    p_bat.add_argument(
        "--retry",
        type=int,
        default=None,
        metavar="N",
        help="retry transient failures (timeouts, worker crashes) up to N "
        "attempts per item; poison items are quarantined with a "
        "reproduction payload",
    )
    p_bat.add_argument(
        "--shard-index",
        type=int,
        default=None,
        dest="shard_index",
        metavar="I",
        help="analyze only shard I of the campaign (0-based; requires "
        "--shard-count or --shard-manifest)",
    )
    p_bat.add_argument(
        "--shard-count",
        type=int,
        default=None,
        dest="shard_count",
        metavar="N",
        help="total number of shards (items are assigned round-robin by "
        "submission index)",
    )
    p_bat.add_argument(
        "--shard-manifest",
        default=None,
        dest="shard_manifest",
        metavar="FILE",
        help="shard plan written by 'repro shard plan'; validated against "
        "this campaign's item digests before running",
    )
    _add_compact_args(p_bat)
    p_bat.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        metavar="DIR",
        help="persistent cross-run result cache root: whole item records "
        "are stored under DIR and re-emitted verbatim by later runs; "
        "entries are self-verified, so a corrupt cache only ever costs "
        "recomputation",
    )
    _add_obs_args(p_bat)
    _add_status_args(p_bat)

    p_ch = sub.add_parser(
        "chaos",
        help="fault-injection harness: kill, tamper with and resume a "
        "journaled batch campaign, then verify it matches an "
        "uninterrupted run",
    )
    p_ch.add_argument("--items", type=int, default=50, dest="n_items", metavar="N")
    p_ch.add_argument("--seed", type=int, default=7)
    _add_method_arg(p_ch)
    p_ch.add_argument("--workers", type=int, default=2)
    p_ch.add_argument(
        "--journal",
        default="chaos.wal",
        metavar="FILE",
        help="journal file the campaign writes/resumes (default: chaos.wal)",
    )
    p_ch.add_argument("--kill-rate", type=float, default=0.02,
                      help="per-item probability of SIGKILLing the worker")
    p_ch.add_argument("--timeout-rate", type=float, default=0.04,
                      help="per-item probability of an injected timeout")
    p_ch.add_argument("--error-rate", type=float, default=0.04,
                      help="per-item probability of an injected transient error")
    p_ch.add_argument(
        "--kill-points",
        default="7,19",
        metavar="N,N,...",
        help="SIGKILL the campaign after these journal-append counts, one "
        "run per point (each run resumes the previous journal)",
    )
    p_ch.add_argument(
        "--tamper",
        choices=["none", "truncate", "corrupt"],
        default="truncate",
        help="damage the journal tail after the first kill (default: truncate)",
    )
    p_ch.add_argument("--max-attempts", type=int, default=4)
    p_ch.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the chaos report JSON to FILE",
    )
    p_ch.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        metavar="DIR",
        help="run the injected campaigns with a persistent cache under "
        "DIR and scramble part of it after the first kill; equivalence "
        "then proves cache corruption never propagates",
    )
    # Chaos children write their status after every item.
    _add_status_args(p_ch, interval=False)

    p_aud = sub.add_parser(
        "audit", help="randomized soundness audit (analysis vs simulation)"
    )
    p_aud.add_argument("--systems", type=int, default=50, help="systems to audit")
    p_aud.add_argument("--seed", type=int, default=0)
    _add_method_arg(
        p_aud,
        "repeatable; default: every registered method",
        action="append",
        dest="methods",
    )
    p_aud.add_argument(
        "--fault",
        action="append",
        dest="faults",
        choices=["none", "jitter", "cluster", "perturb"],
        metavar="FAULT",
        help="repeatable fault cycle; default: none, jitter, cluster, perturb",
    )
    p_aud.add_argument(
        "--corrupt",
        default=None,
        choices=sorted(METHODS),
        metavar="METHOD",
        help="self-test: corrupt this method's bounds and require the "
        "audit to flag every run",
    )
    p_aud.add_argument(
        "--corrupt-factor", type=float, default=0.5, dest="corrupt_factor"
    )
    p_aud.add_argument(
        "--sim-cap", type=float, default=300.0, dest="sim_cap",
        help="simulation window cap per system",
    )
    p_aud.add_argument("--max-jobs", type=int, default=4, dest="max_jobs")
    p_aud.add_argument(
        "--no-shrink", action="store_true",
        help="skip counterexample shrinking on violations",
    )
    p_aud.add_argument(
        "--artifact-dir", default=None, dest="artifact_dir",
        help="directory for shrunk counterexample JSON artifacts",
    )
    p_aud.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    _add_compact_args(p_aud)
    _add_obs_args(p_aud)
    _add_status_args(p_aud)

    p_sh = sub.add_parser(
        "shard",
        help="plan and merge sharded batch campaigns (see docs/performance.md)",
    )
    sh_sub = p_sh.add_subparsers(dest="shard_command", required=True)

    p_sp = sh_sub.add_parser(
        "plan",
        help="emit a deterministic shard manifest for a JSONL campaign",
    )
    p_sp.add_argument(
        "input",
        nargs="?",
        default="-",
        help="JSONL file of work items ('-' = stdin), exactly as passed "
        "to 'repro batch'",
    )
    p_sp.add_argument(
        "--shards",
        type=int,
        required=True,
        metavar="N",
        help="number of shards to split the campaign into",
    )
    p_sp.add_argument(
        "--out", required=True, metavar="FILE", help="manifest output path"
    )
    _add_method_arg(
        p_sp,
        "default method for items that do not name one (must match the "
        "batch invocation)",
    )
    p_sp.add_argument(
        "--audit",
        action="store_true",
        help="plan for an audited campaign (must match the batch invocation)",
    )
    _add_compact_args(p_sp, analyzes=False)

    p_sm = sh_sub.add_parser(
        "merge",
        help="combine shard outputs into one unsharded campaign result",
    )
    p_sm.add_argument(
        "--plan", required=True, metavar="FILE",
        help="shard manifest written by 'repro shard plan'",
    )
    p_sm.add_argument(
        "--records", nargs="+", default=None, metavar="FILE",
        help="per-shard JSONL outputs; merged verbatim in submission order",
    )
    p_sm.add_argument(
        "--out", default=None, metavar="FILE",
        help="merged JSONL output ('-' or omitted = stdout)",
    )
    p_sm.add_argument(
        "--journals", nargs="+", default=None, metavar="FILE",
        help="per-shard write-ahead journals; merged into --journal-out",
    )
    p_sm.add_argument(
        "--journal-out", default=None, dest="journal_out", metavar="FILE",
        help="merged journal path (resumable by the unsharded campaign)",
    )
    p_sm.add_argument(
        "--status", nargs="+", default=None, dest="status_files",
        metavar="FILE",
        help="per-shard status files; counts sum into --status-out",
    )
    p_sm.add_argument(
        "--status-out", default=None, dest="status_out", metavar="FILE",
        help="merged status document path",
    )
    p_sm.add_argument(
        "--metrics-out", default=None, dest="metrics_out", metavar="FILE",
        help="Prometheus text dump of the merged status metrics snapshots",
    )

    p_tr = sub.add_parser(
        "trace",
        help="profile one analysis run (Chrome trace + Prometheus metrics)",
    )
    p_tr.add_argument("system", help="path to the system JSON file")
    _add_method_arg(p_tr)
    p_tr.add_argument(
        "--trace-out",
        default="trace.json",
        dest="trace_out",
        metavar="FILE",
        help="Chrome/Perfetto trace output (default: trace.json)",
    )
    p_tr.add_argument(
        "--metrics-out",
        default="metrics.prom",
        dest="metrics_out",
        metavar="FILE",
        help="Prometheus text metrics output (default: metrics.prom)",
    )
    p_tr.add_argument(
        "--no-detail",
        action="store_true",
        help="omit per-curve-op spans (coarse trace only)",
    )
    p_tr.add_argument(
        "--embed",
        action="store_true",
        help="print the result JSON with the observability block embedded",
    )
    _add_compact_args(p_tr)
    _add_profile_args(p_tr)

    p_obs = sub.add_parser(
        "obs", help="observability utilities (live status watcher, HTML report)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_ow = obs_sub.add_parser(
        "watch", help="render a live campaign status file in the terminal"
    )
    p_ow.add_argument("status_file", help="status file written via --status")
    p_ow.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    p_ow.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (exit 1 if the file is unreadable)",
    )

    p_or = obs_sub.add_parser(
        "report", help="build a self-contained HTML report from run artifacts"
    )
    p_or.add_argument(
        "--out", required=True, metavar="FILE", help="HTML output path"
    )
    p_or.add_argument(
        "--status", default=None, metavar="FILE", help="campaign status file"
    )
    p_or.add_argument(
        "--trace", default=None, metavar="FILE", help="Chrome trace JSON"
    )
    p_or.add_argument(
        "--metrics", default=None, metavar="FILE", help="Prometheus text dump"
    )
    p_or.add_argument(
        "--result",
        default=None,
        metavar="FILE",
        help="analysis result JSON (for the convergence chart)",
    )
    p_or.add_argument(
        "--profile", default=None, metavar="FILE", help="collapsed-stack profile"
    )
    p_or.add_argument("--title", default="repro run report")

    p_rep = sub.add_parser("report", help="markdown analysis report")
    p_rep.add_argument("system")
    _add_method_arg(
        p_rep,
        "repeatable; default: SPP/Exact and SPNP/App",
        action="append",
        dest="methods",
    )
    p_rep.add_argument("--no-simulate", action="store_true")

    sub.add_parser("methods", help="list analysis methods")
    return parser


def _cmd_analyze(args) -> int:
    system = _load_system(args.system)
    options = _options_from_args(args)
    cache = _cache_scope(args)
    with _observe(args), cache:
        result = make_analyzer(args.method, options=options).analyze(system)
    print(result.to_json(indent=2) if args.json else result.summary())
    return 0 if result.schedulable else 1


def _cmd_trace(args) -> int:
    from .curves.memo import DEFAULT_CACHE_SIZE

    options = _options_from_args(args)
    cache = _cache_scope(args, DEFAULT_CACHE_SIZE)
    system = _load_system(args.system)
    with _observe(
        args, detail=not args.no_detail, force_trace=True, force_metrics=True
    ) as session:
        with cache:
            result = make_analyzer(args.method, options=options).analyze(system)
        if args.embed:
            result.observability = session.embed_block()
        n_spans = len(session.collector.spans)
    print(result.to_json(indent=2) if args.embed else result.summary())
    print(
        f"trace: {n_spans} spans -> {args.trace_out}; "
        f"metrics -> {args.metrics_out}",
        file=sys.stderr,
    )
    return 0 if result.schedulable else 1


def _cmd_simulate(args) -> int:
    if not (math.isfinite(args.horizon) and args.horizon > 0.0):
        raise _UsageError(
            f"--horizon must be finite and positive, got {args.horizon}"
        )
    window = args.report_window
    if window is not None and not (math.isfinite(window) and window >= 0.0):
        raise _UsageError(
            f"--report-window must be finite and non-negative, got {window}"
        )
    system = _load_system(args.system)
    res = run_simulation(
        system, horizon=args.horizon, report_window=args.report_window
    )
    print(res.summary())
    return 0 if res.all_deadlines_met else 1


def _cmd_validate(args) -> int:
    from .audit.checks import check_results, make_audit_analyzer

    system = _load_system(args.system)
    analyzer = make_audit_analyzer(args.method, options=_options_from_args(args))
    with _cache_scope(args):
        result = analyzer.analyze(system)
    if not args.json:
        print(result.summary())
    if not result.drained:
        if args.json:
            print(json.dumps({"analysis": result.to_dict(), "simulation": None}))
        else:
            print("analysis did not drain; skipping simulation comparison")
        return 1
    check = check_results(system, [(analyzer, result)], sim_cap=None)
    worst = check.worst.get(result.method, {})
    comparison = {}
    for job_id, er in sorted(result.jobs.items()):
        observed = worst.get(job_id, 0.0)
        holds = check.holds(result.method, job_id)
        comparison[job_id] = {
            "bound": er.wcrt if math.isfinite(er.wcrt) else None,
            "observed": observed,
            "bound_holds": holds,
        }
        if not args.json:
            print(
                f"  {job_id}: bound {er.wcrt:.6g} vs simulated {observed:.6g} "
                f"[{'ok' if holds else 'VIOLATION'}]"
            )
    if args.json:
        payload = {
            "analysis": result.to_dict(),
            "simulation": {"jobs": comparison, "all_bounds_hold": check.ok},
        }
        print(json.dumps(payload, indent=2, allow_nan=False))
    return 0 if check.ok else 3


def _cmd_figures(args) -> int:
    from .experiments import (
        Figure3Config,
        Figure4Config,
        format_figure,
        run_figure3,
        run_figure4,
    )

    if args.figure in ("3", "both"):
        cfg = Figure3Config(n_sets=args.sets, n_workers=args.workers)
        print(format_figure(run_figure3(cfg), "Figure 3 (periodic arrivals)"))
    if args.figure in ("4", "both"):
        cfg4 = Figure4Config(n_sets=args.sets, n_workers=args.workers)
        print(format_figure(run_figure4(cfg4), "Figure 4 (bursty arrivals)"))
    return 0


def _parse_batch_items(args) -> List["BatchItem"]:
    """Parse the JSONL work items of ``args.input`` as ``repro batch`` does.

    Shared with ``repro shard plan`` so both commands see the identical
    item list (ids, methods, options, order); ``'-'`` reads stdin.  An
    item that names no method gets ``--method``, and every item carries
    the analysis options of the command's flags.
    """
    from .batch import BatchItem
    from .model.io import system_from_dict

    path = args.input
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise _UsageError(f"cannot read {path}: {reason}") from None
    options = _options_from_args(args)

    items: List[BatchItem] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"{path} line {lineno}: invalid JSON: {exc}")
        wrapped = isinstance(obj, dict) and "system" in obj
        try:
            system = system_from_dict(obj["system"] if wrapped else obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise _UsageError(
                f"{path} line {lineno}: bad system description: {exc}"
            )
        items.append(
            BatchItem(
                system=system,
                method=(wrapped and obj.get("method")) or args.method,
                item_id=str(obj["id"]) if wrapped and "id" in obj else str(lineno),
                options=options,
            )
        )
    return items


def _item_digests(items) -> List[str]:
    """Content digest per item, matching the batch engine's journal keys."""
    from .batch.journal import item_digest

    return [
        item_digest(it.system, it.method, it.horizon, it.options) for it in items
    ]


def _shard_filter(args, items) -> List["BatchItem"]:
    """Restrict ``items`` to the shard ``--shard-index`` names."""
    from .cache import check_plan_matches, load_plan, shard_indices

    n_shards = args.shard_count
    if args.shard_manifest:
        plan = load_plan(args.shard_manifest)
        if n_shards is not None and n_shards != plan["n_shards"]:
            raise _UsageError(
                f"--shard-count {n_shards} disagrees with the manifest's "
                f"{plan['n_shards']} shards"
            )
        check_plan_matches(plan, _item_digests(items), args.shard_manifest)
        keep = set(shard_indices(plan, args.shard_index))
    elif n_shards is None:
        raise _UsageError(
            "--shard-index requires --shard-count or --shard-manifest"
        )
    elif not 0 <= args.shard_index < n_shards:
        raise _UsageError(
            f"--shard-index {args.shard_index} out of range for "
            f"{n_shards} shards"
        )
    else:
        keep = set(range(args.shard_index, len(items), n_shards))
    return [it for i, it in enumerate(items) if i in keep]


def _cmd_batch(args) -> int:
    from .batch import BatchEngine, RetryPolicy

    items = _parse_batch_items(args)
    if args.resume and not args.journal:
        raise _UsageError("--resume requires --journal")
    try:
        engine = BatchEngine(
            n_workers=args.workers,
            chunksize=args.chunksize,
            timeout=args.timeout,
            use_cache=not args.no_cache,
            cache_size=args.cache_size,
            cache_dir=args.cache_dir,
            audit=args.audit,
            retry=RetryPolicy(max_attempts=args.retry) if args.retry else None,
            journal=args.journal,
            resume=args.resume,
            status=args.status,
            status_interval=args.status_interval,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.shard_index is not None:
        items = _shard_filter(args, items)
    elif args.shard_count is not None or args.shard_manifest:
        raise _UsageError("--shard-count/--shard-manifest require --shard-index")
    with _observe(args):
        report = engine.run(items)
    for record in report:
        print(record.to_json())
    print(report.summary(), file=sys.stderr)
    if args.audit and report.n_violations:
        print(
            f"audit: {report.n_violations} soundness violation(s) found",
            file=sys.stderr,
        )
        return 3
    return 0 if report.n_failed == 0 else 1


def _cmd_report(args) -> int:
    from .experiments import analysis_report

    system = _load_system(args.system)
    if not args.no_simulate:
        # Refuse priorities the cross-check's simulation cannot run with
        # up front rather than after the analyses.
        system.validate()
    print(
        analysis_report(
            system,
            methods=args.methods or ["SPP/Exact", "SPNP/App"],
            simulate_check=not args.no_simulate,
        )
    )
    return 0


def _cmd_audit(args) -> int:
    from .audit import FAULTS, AuditConfig, run_audit

    config = AuditConfig(
        n_systems=args.systems,
        seed=args.seed,
        methods=tuple(args.methods) if args.methods else tuple(METHODS),
        faults=tuple(args.faults) if args.faults else FAULTS,
        corrupt=args.corrupt,
        corrupt_factor=args.corrupt_factor,
        sim_cap=args.sim_cap,
        max_jobs=args.max_jobs,
        shrink=not args.no_shrink,
        artifact_dir=args.artifact_dir,
        options=_options_from_args(args),
    )
    cache = _cache_scope(args)
    status = None
    if args.status:
        from .obs import StatusWriter

        status = StatusWriter(
            args.status, campaign="audit", interval=args.status_interval
        )

    def progress(audit) -> None:
        if status is not None:
            status.item_done("ok" if not audit.outcome.violations else "error")
        if not args.json and audit.outcome.violations:
            print(
                f"system {audit.index} (seed {audit.seed}, "
                f"fault {audit.fault}): "
                f"{len(audit.outcome.violations)} violation(s)",
                file=sys.stderr,
            )

    with _observe(args):
        if status is not None:
            status.begin(total=config.n_systems)
        try:
            with cache:
                report = run_audit(config, progress=progress)
        finally:
            if status is not None:
                status.finish()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    else:
        print(report.summary())
    return 0 if report.ok else 3


def _cmd_shard(args) -> int:
    return (_cmd_shard_plan if args.shard_command == "plan" else _cmd_shard_merge)(args)


def _cmd_shard_plan(args) -> int:
    from .batch.journal import campaign_fingerprint
    from .cache import build_plan
    from .ioutil import write_json_atomic

    items = _parse_batch_items(args)
    digests = _item_digests(items)
    fingerprint = campaign_fingerprint(digests, audit=args.audit)
    plan = build_plan([it.item_id for it in items], digests, args.shards, fingerprint)
    write_json_atomic(args.out, plan)
    per_shard = [
        sum(1 for e in plan["items"] if e["shard"] == s)
        for s in range(args.shards)
    ]
    print(
        f"shard plan: {len(items)} items -> {args.shards} shards "
        f"({'/'.join(str(n) for n in per_shard)}) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_shard_merge(args) -> int:
    from .cache import load_plan, merge_journals, merge_records, merge_status

    plan = load_plan(args.plan)
    if args.journals and not args.journal_out:
        raise _UsageError("--journals requires --journal-out")
    if args.metrics_out and not args.status_files:
        raise _UsageError("--metrics-out requires --status")
    if not (args.records or args.journals or args.status_files):
        raise _UsageError(
            "nothing to merge (pass --records, --journals and/or --status)"
        )
    if args.records:
        lines = merge_records(plan, args.records)
        text = "".join(line + "\n" for line in lines)
        if args.out and args.out != "-":
            from .ioutil import write_text_atomic

            write_text_atomic(args.out, text)
            print(f"records: {len(lines)} -> {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(text)
    if args.journals:
        n = merge_journals(plan, args.journals, args.journal_out)
        print(f"journal: {n} entries -> {args.journal_out}", file=sys.stderr)
    if args.status_files:
        merged = merge_status(args.status_files, out_path=args.status_out)
        if args.status_out:
            print(f"status: {len(args.status_files)} shards -> "
                  f"{args.status_out}", file=sys.stderr)
        if args.metrics_out:
            from .obs.export import write_prometheus

            if "metrics" not in merged:
                raise _UsageError(
                    "--metrics-out requires status files with embedded "
                    "metrics (run shards with --metrics-out)"
                )
            write_prometheus(args.metrics_out, merged["metrics"])
            print(f"metrics -> {args.metrics_out}", file=sys.stderr)
    return 0


def _cmd_chaos(args) -> int:
    from dataclasses import fields

    from .chaos import ChaosConfig, run_chaos
    from .ioutil import write_json_atomic

    # Every ChaosConfig field is the flag of the same name.
    values = {f.name: getattr(args, f.name) for f in fields(ChaosConfig)}
    try:
        values["kill_points"] = tuple(
            int(x) for x in args.kill_points.split(",") if x.strip()
        )
        config = ChaosConfig(**values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    report = run_chaos(config, args.journal, status_path=args.status)
    print(report.summary(), file=sys.stderr)
    if args.json:
        write_json_atomic(args.json, report.to_dict(), indent=2)
    else:
        print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    return 0 if report.ok else 1


def _cmd_obs(args) -> int:
    if args.obs_command == "watch":
        from .obs.watch import watch

        return watch(args.status_file, interval=args.interval, once=args.once)
    from .obs.report import write_report

    write_report(
        args.out,
        status=args.status,
        trace=args.trace,
        metrics=args.metrics,
        result=args.result,
        profile=args.profile,
        title=args.title,
    )
    print(f"report -> {args.out}", file=sys.stderr)
    return 0


def _cmd_methods(_args) -> int:
    for name in sorted(METHODS):
        print(f"  {name:14s} {METHODS[name].__doc__.strip().splitlines()[0]}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
        "figures": _cmd_figures,
        "batch": _cmd_batch,
        "shard": _cmd_shard,
        "chaos": _cmd_chaos,
        "audit": _cmd_audit,
        "trace": _cmd_trace,
        "obs": _cmd_obs,
        "report": _cmd_report,
        "methods": _cmd_methods,
    }
    # Exit status 1 reports a deadline miss or a failed item, so a flag
    # value, an input or a system the command cannot run with must not
    # escape as a traceback.
    try:
        return handlers[args.command](args)
    except (
        _UsageError, AnalysisError, PriorityError, ShardError, JournalError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
