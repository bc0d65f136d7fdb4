"""Opt-in profiling: collapsed-stack (flamegraph-ready) text artifacts.

Two complementary samplers, both stdlib-only:

* **CPU** -- a :mod:`cProfile` run over the observed block, folded into
  collapsed stacks by walking the caller graph and distributing each
  function's own time over the call paths that reach it (proportionally
  to per-edge cumulative time, the standard flamegraph approximation for
  deterministic profiles).  One output line per path::

      main;run_adaptive;_sweep;evaluate;sum_curves 12345

  with integer microsecond weights -- exactly what ``flamegraph.pl``,
  speedscope and Brendan Gregg's tooling consume.
* **Memory** -- a :mod:`tracemalloc` snapshot at the end of the block,
  with the top allocation tracebacks folded the same way (weights in
  bytes).

Both are wired through :func:`repro.obs.session.observe` (and the CLI's
``--profile-out`` / ``--profile-mem-out`` flags); they are off unless a
path is given, so production runs pay nothing.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any, Dict, List, Optional, Tuple

from ..ioutil import write_text_atomic

__all__ = [
    "Profiler",
    "collapse_profile",
    "collapse_tracemalloc",
]

#: Allocation tracebacks kept in the memory artifact.
_MEM_TOP = 50
#: Frames recorded per allocation traceback.
_MEM_DEPTH = 16


def _frame_label(func: Tuple[str, int, str]) -> str:
    """``file:function`` label for one pstats function key."""
    filename, lineno, name = func
    if filename == "~":  # built-in, e.g. "<built-in method builtins.sum>"
        label = name
    else:
        label = f"{filename.rsplit('/', 1)[-1]}:{name}"
    # Semicolons and spaces are the collapsed-format separators.
    return label.replace(";", ",").replace(" ", "_")


def collapse_profile(profiler: cProfile.Profile) -> List[str]:
    """Fold a finished profile into collapsed-stack lines.

    Own (inline) time of every function is attributed to each call path
    that reaches it from a root, split proportionally to the cumulative
    time of the incoming edges.  Recursive edges are cut at the first
    repeat, so pathological cycles terminate (their weight stays on the
    shorter path).
    """
    try:
        stats = pstats.Stats(profiler).stats  # {func: (cc, nc, tt, ct, callers)}
    except TypeError:  # profile never ran: nothing to fold
        return []
    callees: Dict[Any, List[Tuple[Any, float]]] = {}
    total_in: Dict[Any, float] = {}
    for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        for caller, edge in callers.items():
            edge_ct = edge[3] if isinstance(edge, tuple) else float(edge)
            callees.setdefault(caller, []).append((func, edge_ct))
            total_in[func] = total_in.get(func, 0.0) + edge_ct

    weights: Dict[Tuple[str, ...], float] = {}

    def descend(func: Any, path: Tuple[str, ...], share: float) -> None:
        # Prune vanishing shares and over-deep paths: keeps the DFS
        # linear-ish on big caller graphs at no visible cost in the
        # flamegraph (sub-microsecond slivers are invisible anyway).
        if share < 1e-6 or len(path) > 96:
            return
        label = _frame_label(func)
        if label in path:  # recursion: keep the weight on the outer frame
            return
        path = path + (label,)
        own = stats[func][2] * share
        if own > 0.0:
            weights[path] = weights.get(path, 0.0) + own
        for child, edge_ct in callees.get(func, ()):
            denominator = total_in.get(child, 0.0)
            if denominator > 0.0:
                descend(child, path, share * edge_ct / denominator)

    roots = [func for func in stats if func not in total_in]
    for root in roots:
        descend(root, (), 1.0)

    lines = [
        f"{';'.join(path)} {max(1, round(seconds * 1e6))}"
        for path, seconds in sorted(weights.items())
        if seconds > 0.0
    ]
    return lines


def collapse_tracemalloc(snapshot: Any, top: int = _MEM_TOP) -> List[str]:
    """Top allocation tracebacks as collapsed stacks weighted in bytes."""
    stats = snapshot.statistics("traceback")[:top]
    lines: List[str] = []
    for stat in stats:
        frames = [
            f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}".replace(
                ";", ","
            ).replace(" ", "_")
            for frame in stat.traceback
        ]
        if not frames:
            continue
        # tracemalloc stores the allocation site last; flamegraphs read
        # root-to-leaf, which is already the traceback order.
        lines.append(f"{';'.join(frames)} {stat.size}")
    return lines


class Profiler:
    """Scoped CPU (and optionally memory) profiler with text export.

    ``with Profiler(mem=True) as prof: ...`` then
    ``prof.write("profile.txt")`` / ``prof.write_memory("mem.txt")``.
    """

    def __init__(self, mem: bool = False) -> None:
        self.mem = mem
        self._profile = cProfile.Profile()
        self._snapshot: Optional[Any] = None
        self._mem_was_tracing = False

    def start(self) -> None:
        if self.mem:
            import tracemalloc

            self._mem_was_tracing = tracemalloc.is_tracing()
            if not self._mem_was_tracing:
                tracemalloc.start(_MEM_DEPTH)
        self._profile.enable()

    def stop(self) -> None:
        self._profile.disable()
        if self.mem:
            import tracemalloc

            if tracemalloc.is_tracing():
                self._snapshot = tracemalloc.take_snapshot()
                if not self._mem_was_tracing:
                    tracemalloc.stop()

    def __enter__(self) -> "Profiler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------

    def collapsed_stacks(self) -> List[str]:
        return collapse_profile(self._profile)

    def memory_stacks(self) -> List[str]:
        if self._snapshot is None:
            return []
        return collapse_tracemalloc(self._snapshot)

    def write(self, path: str) -> None:
        write_text_atomic(path, "\n".join(self.collapsed_stacks()) + "\n")

    def write_memory(self, path: str) -> None:
        write_text_atomic(path, "\n".join(self.memory_stacks()) + "\n")
