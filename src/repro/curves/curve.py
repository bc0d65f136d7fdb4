"""Non-decreasing piecewise-linear curves with upward jumps.

This module implements the cumulative-function algebra that underpins the
response-time analysis of Li, Bettati & Zhao (ICPP 1998).  Every quantity in
the paper -- arrival functions (Def. 1), departure functions (Def. 2),
workload functions (Def. 3), service functions (Def. 4), and the processor
utilization function (Def. 7) -- is a non-decreasing function of time.
Arrival/workload/departure functions are *step* functions (piecewise
constant, jumping upward at release/completion instants); service and
utilization functions are *continuous* piecewise-linear functions whose
slopes lie in ``[0, 1]``.

:class:`Curve` represents both kinds uniformly, as an immutable value type:

* breakpoints are stored privately as parallel arrays ``x`` (abscissae)
  and ``y`` (values), both non-decreasing, with ``x[0] == 0``; read them
  through the :meth:`Curve.breakpoints` view;
* a pair of consecutive entries sharing the same abscissa encodes an upward
  jump (the function is evaluated *right-continuously* at the jump);
* beyond the last breakpoint the curve continues with a constant
  ``final_slope``.

Curves are constructed through the factories --
:meth:`Curve.from_breakpoints` for explicit breakpoint data,
:meth:`Curve.from_staircase` / :meth:`Curve.step_from_times` for the
paper's arrival/workload step functions, :meth:`Curve.from_token_bucket`
/ :meth:`Curve.affine` for Cruz ``(sigma, rho)`` envelopes, plus
:meth:`Curve.zero`, :meth:`Curve.constant` and :meth:`Curve.identity`.

The numerical kernels behind construction, evaluation and the
pseudo-inverse live in :mod:`repro.curves.kernels`.

The class deliberately exposes both right-continuous evaluation
(:meth:`Curve.value`) and left limits (:meth:`Curve.value_left`): the
min-plus service transform of Theorems 3/5/6/7 is only physically correct
when cumulative workload is taken left-continuously at its jumps (the
network-calculus convention, cf. Cruz), while the paper's pseudo-inverse
``g^{-1}(v) = min{s : g(s) >= v}`` (Def. 5) is stated for the
right-continuous reading.  See DESIGN.md section 3.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from . import kernels
from .kernels import EPS, CurveError

__all__ = [
    "Breakpoints",
    "Curve",
    "CurveError",
    "EPS",
    "audit_checks",
    "audit_checks_enabled",
    "set_audit_checks",
]

ArrayLike = Union[float, Sequence[float], Any]

#: When true, every constructed curve is run through
#: :meth:`Curve.check_invariants` before being handed to callers.  Off by
#: default (it costs a few array passes per curve); the audit harness and
#: the test suite switch it on.
_AUDIT_CHECKS = False


def audit_checks_enabled() -> bool:
    """Whether post-construction invariant checking is active."""
    return _AUDIT_CHECKS


def set_audit_checks(enabled: bool) -> bool:
    """Enable/disable invariant checking; returns the previous setting."""
    global _AUDIT_CHECKS
    previous = _AUDIT_CHECKS
    _AUDIT_CHECKS = bool(enabled)
    return previous


@contextmanager
def audit_checks(enabled: bool = True) -> Iterator[None]:
    """Scope invariant checking to a ``with`` block."""
    previous = set_audit_checks(enabled)
    try:
        yield
    finally:
        set_audit_checks(previous)


class Breakpoints(NamedTuple):
    """Read-only view of a curve's breakpoint arrays (parallel ``x``/``y``).

    The arrays are the curve's frozen storage -- float64 NumPy arrays
    with the writeable flag cleared.  Copy them before modifying.
    """

    x: Any
    y: Any


class Curve:
    """A non-decreasing piecewise-linear function on ``[0, inf)``.

    Instances are immutable value types: breakpoint storage is private
    and frozen, so curves can be shared, memoized and used as building
    blocks without defensive copies.  Use the factory classmethods to
    construct curves and :meth:`breakpoints` to read the breakpoint
    arrays.

    Notes
    -----
    The empty curve is not representable; the minimal curve is a single
    breakpoint, e.g. ``Curve.from_breakpoints([0.0], [0.0])`` which is
    the constant zero function.
    """

    __slots__ = ("_x", "_y", "_final_slope", "_memo_token")

    # ------------------------------------------------------------------
    # construction (factories)
    # ------------------------------------------------------------------

    @classmethod
    def _build(
        cls,
        x: ArrayLike,
        y: ArrayLike,
        final_slope: float = 0.0,
        canonicalize: bool = True,
        owned: bool = False,
    ) -> "Curve":
        """Internal constructor behind every factory and operator.

        ``owned`` hands fresh arrays over to the curve instead of having
        them copied (see :func:`repro.curves.kernels.normalize`).
        """
        xs, ys, fs = kernels.normalize(x, y, final_slope, canonicalize, owned)
        xs.flags.writeable = False
        ys.flags.writeable = False
        self = object.__new__(cls)
        self._x = xs
        self._y = ys
        self._final_slope = fs
        #: Lazily computed breakpoint digest (see :mod:`repro.curves.memo`).
        self._memo_token = None
        if _AUDIT_CHECKS:
            self.check_invariants()
        return self

    @classmethod
    def from_breakpoints(
        cls,
        x: ArrayLike,
        y: ArrayLike,
        final_slope: float = 0.0,
        *,
        canonicalize: bool = True,
    ) -> "Curve":
        """Curve through explicit breakpoints.

        Parameters
        ----------
        x, y:
            Breakpoint abscissae and values.  Both must be non-decreasing
            and of equal length; ``x[0]`` must be ``0``.  Two consecutive
            entries with the same abscissa encode an upward jump.
        final_slope:
            Slope of the curve for ``t >= x[-1]``.  Must be ``>= 0``.
        canonicalize:
            When true (default) the breakpoint list is normalized (see
            :func:`repro.curves.kernels._canonicalize`): a third point at
            one abscissa, the top of a jump of height exactly zero, every
            interior point of an exactly flat run, and a final point that
            the final slope reaches within ``EPS`` are removed.  Only the
            last rule moves a value, by at most ``EPS`` past the last kept
            point; a ramp keeps every point, and abscissae closer than
            ``EPS`` are never merged: a jump is never moved in time.

        Raises :class:`CurveError` on invalid data: a non-finite number,
        ``x[0] != 0``, ``x`` or ``y`` falling by more than ``EPS``, or a
        negative final slope.
        """
        return cls._build(x, y, final_slope, canonicalize)

    @classmethod
    def zero(cls) -> "Curve":
        """The constant-zero curve."""
        return cls._build([0.0], [0.0], 0.0, canonicalize=False)

    @classmethod
    def constant(cls, value: float) -> "Curve":
        """A constant curve ``f(t) = value`` (value must be ``>= 0``)."""
        if value < 0:
            raise CurveError("constant curves must be non-negative")
        if value == 0:
            return cls.zero()
        return cls._build([0.0, 0.0], [0.0, value], 0.0, canonicalize=False)

    @classmethod
    def identity(cls) -> "Curve":
        """The curve ``f(t) = t``."""
        return cls._build([0.0], [0.0], 1.0, canonicalize=False)

    @classmethod
    def affine(cls, rate: float, burst: float = 0.0) -> "Curve":
        """A leaky-bucket / token-bucket curve ``f(t) = burst + rate * t``.

        With ``burst > 0`` the curve jumps from 0 to ``burst`` at ``t = 0``
        (the Cruz ``(sigma, rho)`` arrival envelope).
        """
        if rate < 0 or burst < 0:
            raise CurveError("rate and burst must be non-negative")
        if burst == 0:
            return cls._build([0.0], [0.0], rate, canonicalize=False)
        return cls._build([0.0, 0.0], [0.0, burst], rate, canonicalize=False)

    @classmethod
    def from_token_bucket(cls, rate: float, burst: float = 0.0) -> "Curve":
        """Stable-name alias of :meth:`affine` (``sigma = burst, rho = rate``)."""
        return cls.affine(rate, burst)

    @classmethod
    def step_from_times(
        cls,
        times: ArrayLike,
        height: float = 1.0,
    ) -> "Curve":
        """Cumulative step curve jumping by ``height`` at each time.

        This is the paper's arrival function (``height=1``) or workload
        function (``height=tau``) for an instance sequence released at the
        given times.  Simultaneous releases merge into a single taller jump.
        An empty time sequence yields the zero curve.
        """
        raw = kernels.step_from_times(times, height)
        if raw is None:
            return cls.zero()
        xs, ys, canonical = raw
        return cls._build(xs, ys, 0.0, canonicalize=not canonical, owned=True)

    @classmethod
    def from_staircase(cls, times: ArrayLike, height: float = 1.0) -> "Curve":
        """Stable-name alias of :meth:`step_from_times`."""
        return cls.step_from_times(times, height)

    # ------------------------------------------------------------------
    # breakpoint access and invariants
    # ------------------------------------------------------------------

    def breakpoints(self) -> Breakpoints:
        """The curve's breakpoint arrays as a read-only named view."""
        return Breakpoints(self._x, self._y)

    @property
    def final_slope(self) -> float:
        """Slope of the curve beyond the last breakpoint."""
        return self._final_slope

    def check_invariants(self) -> None:
        """Verify the class invariants, raising :class:`CurveError` if broken.

        Checked properties (the contract every operator in
        :mod:`repro.curves.ops` relies on):

        * ``x`` and ``y`` are equal-length, finite, 1-D arrays;
        * ``x[0] == 0`` and both arrays are non-decreasing;
        * no abscissa appears more than twice (jumps are encoded by exactly
          one duplicated point);
        * ``final_slope`` is finite and non-negative.

        Constructor clamping normally guarantees all of these; this method
        exists so the audit harness can verify curves at use sites,
        activated globally via :func:`set_audit_checks` /
        :func:`audit_checks`.
        """
        kernels.check_invariants(self._x, self._y, self._final_slope)

    @property
    def n_breakpoints(self) -> int:
        """Number of stored breakpoints."""
        return int(self._x.size)

    @property
    def x_end(self) -> float:
        """Abscissa of the last breakpoint."""
        return float(self._x[-1])

    @property
    def y_end(self) -> float:
        """Value at the last breakpoint (right-continuous)."""
        return float(self._y[-1])

    def is_step(self, tol: float = EPS) -> bool:
        """True if the curve is piecewise constant (only jumps, no ramps)."""
        return kernels.is_step(self._x, self._y, self._final_slope, tol)

    def is_continuous(self, tol: float = EPS) -> bool:
        """True if the curve has no jumps."""
        return kernels.is_continuous(self._x, self._y, tol)

    def lipschitz_bound(self) -> float:
        """Maximum slope over all ramp segments (``inf`` if any jump)."""
        if not self.is_continuous():
            return math.inf
        return kernels.lipschitz(self._x, self._y, self._final_slope)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def value(self, t: ArrayLike):
        """Right-continuous value(s) of the curve at time(s) ``t``.

        Values for ``t < 0`` are reported as ``f(0)``'s pre-jump value
        ``y[0]`` (callers should not query negative times; this keeps the
        function total).
        """
        return self._query(kernels.eval_right, t)

    def value_left(self, t: ArrayLike):
        """Left limit(s) ``f(t-)`` of the curve at time(s) ``t``.

        ``f(0-)`` is defined as the pre-jump value ``y[0]`` (zero for all
        cumulative curves built by this package).
        """
        return self._query(kernels.eval_left, t)

    def first_crossing(self, v: ArrayLike):
        """Pseudo-inverse ``min{s : f(s) >= v}`` (paper Definition 5).

        Returns ``inf`` where the curve never reaches ``v``.  For a step
        curve built from release times, ``first_crossing(m)`` is exactly the
        release time of the ``m``-th instance (paper Eq. 3).
        """
        return self._query(kernels.first_crossing, v)

    def last_below(self, v: ArrayLike):
        """Supremum of ``{t : f(t) <= v}`` (``inf`` when unbounded).

        The dual of :meth:`first_crossing`; used by the busy-window bounds
        to turn ``f(C) <= X`` into an upper bound on ``C``.  Returns 0 when
        even ``f(0) > v``.
        """
        return self._query(kernels.last_below, v)

    def _query(self, kernel, q: ArrayLike):
        """Apply a point kernel: a float for a scalar query, else an array."""
        qs = np.asarray(q, dtype=float)
        if qs.ndim == 0:
            return float(kernel(self._x, self._y, self._final_slope, qs.reshape(1))[0])
        return kernel(self._x, self._y, self._final_slope, qs)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def scale(self, factor: float) -> "Curve":
        """Return ``factor * f`` (factor must be ``>= 0``)."""
        if factor < 0:
            raise CurveError("scale factor must be non-negative")
        return Curve._build(
            self._x,
            self._y * factor,
            self._final_slope * factor,
            canonicalize=False,
        )

    def shift_x(self, delta: float) -> "Curve":
        """Return ``f(t - delta)`` for ``delta >= 0`` (zero before delta).

        The shifted curve is zero on ``[0, delta)`` and then replays ``f``.
        """
        if delta < 0:
            raise CurveError("x-shift must be non-negative")
        if delta == 0:
            return self
        base = float(self._y[0])
        xs = np.concatenate(([0.0], self._x + delta))
        ys = np.concatenate(([base], self._y))
        return Curve._build(xs, ys, self._final_slope)

    def shift_y(self, delta: float) -> "Curve":
        """Return ``f + delta`` for ``delta >= 0``."""
        if delta < 0:
            raise CurveError("y-shift must be non-negative")
        return Curve._build(
            self._x,
            self._y + delta,
            self._final_slope,
            canonicalize=False,
        )

    def __add__(self, other: "Curve") -> "Curve":
        from .ops import sum_curves

        return sum_curves([self, other])

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------

    def jump_times(self, tol: float = EPS):
        """Abscissae of the curve's upward jumps, in increasing order."""
        return kernels.jump_times(self._x, self._y, tol)

    def steps(self):
        """Decompose a step curve into (piece boundaries, piece values).

        Returns arrays ``p`` and ``v`` such that the curve equals ``v[i]``
        on ``[p[i], p[i+1])`` (right-continuous), with ``p[0] == 0`` and the
        last piece extending to infinity.  Raises :class:`CurveError` if the
        curve is not a step curve.
        """
        if not self.is_step():
            raise CurveError("steps() requires a piecewise-constant curve")
        jumps = self.jump_times()
        if not (jumps.size and jumps[0] <= EPS):
            jumps = np.concatenate(([0.0], jumps))
        boundaries = np.unique(np.where(jumps > 0.0, jumps, 0.0))
        return boundaries, self.value(boundaries)

    def total_at(self, horizon: float) -> float:
        """Convenience alias for ``value(horizon)``."""
        return float(self.value(horizon))

    def floor_div(self, quantum: float, v_max: float) -> "Curve":
        """Return the step curve ``t -> floor(f(t) / quantum)`` (Theorem 2).

        ``v_max`` bounds the highest multiple of ``quantum`` materialized;
        jumps occur at ``first_crossing(m * quantum)`` for
        ``m = 1 .. floor(v_max / quantum)``.  The result's final slope is
        zero -- callers are expected to keep queries within the horizon that
        produced ``v_max``.
        """
        if quantum <= 0:
            raise CurveError("quantum must be positive")
        m_max = int(math.floor(v_max / quantum + EPS))
        if m_max <= 0:
            return Curve.zero()
        levels = [quantum * m for m in range(1, m_max + 1)]
        times = self.first_crossing(levels).tolist()
        times = [t for t in times if math.isfinite(t)]
        if not times:
            return Curve.zero()
        return Curve.step_from_times(times, 1.0)

    # ------------------------------------------------------------------
    # comparison helpers (used heavily by the tests)
    # ------------------------------------------------------------------

    def sample_points(self, extra: Iterable[float] = ()):
        """Breakpoints plus midpoints plus extras -- a witness grid.

        Two non-decreasing piecewise-linear curves are equal iff they agree
        on the union of their breakpoints and segment midpoints, which is
        what this grid provides for property tests.
        """
        pts = self._x.tolist()
        if len(pts) > 1:
            pts.extend(((self._x[:-1] + self._x[1:]) / 2.0).tolist())
        pts.extend(float(v) for v in extra)
        pts.append(self.x_end + 1.0)
        grid = sorted(set(pts))
        return np.asarray([v for v in grid if v >= 0.0], dtype=float)

    def dominates(self, other: "Curve", tol: float = 1e-7) -> bool:
        """True if ``self(t) >= other(t) - tol`` for all ``t``."""
        grid = sorted(
            set(self.sample_points().tolist() + other.sample_points().tolist())
        )
        a = self.value(grid)
        b = other.value(grid)
        al = self.value_left(grid)
        bl = other.value_left(grid)
        return bool(np.all(a >= b - tol) and np.all(al >= bl - tol))

    def approx_equal(self, other: "Curve", tol: float = 1e-7) -> bool:
        """True if the two curves agree pointwise within ``tol``."""
        return self.dominates(other, tol) and other.dominates(self, tol)

    # ------------------------------------------------------------------
    # dunder / repr
    # ------------------------------------------------------------------

    def __call__(self, t: ArrayLike):
        return self.value(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pts = ", ".join(
            f"({xi:g},{yi:g})" for xi, yi in zip(self._x[:6], self._y[:6])
        )
        n = int(self._x.size)
        more = "..." if n > 6 else ""
        return (
            f"Curve([{pts}{more}], final_slope={self._final_slope:g}, "
            f"n={n})"
        )
