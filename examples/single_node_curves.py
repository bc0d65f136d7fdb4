#!/usr/bin/env python
"""The paper's curve constructions on a single processor, step by step.

Walks through Section 4 on one processor with two subjobs, printing each
object the theorems talk about:

* arrival and workload functions (Definitions 1, 3);
* the exact SPP service function of Theorem 3 and the departure function
  of Theorem 2;
* the end-to-end (here: single-hop) response times of Theorem 1;
* the SPNP service *bounds* of Theorems 5/6 with the blocking time of
  Eq. 15;
* the FCFS utilization function of Theorem 7 and the service bounds of
  Theorems 8/9.

Run:  python examples/single_node_curves.py
"""

import numpy as np

from repro.curves import (
    Curve,
    fcfs_service_bounds,
    fcfs_utilization,
    identity_minus,
    min_curves,
    service_transform,
    sum_curves,
)


def show(name: str, curve: Curve, ts) -> None:
    vals = ", ".join(f"{float(curve.value(t)):5.2f}" for t in ts)
    print(f"  {name:22s} [{vals}]")


def main() -> None:
    print(__doc__)
    ts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]
    print("  sample times          [" + ", ".join(f"{t:5.1f}" for t in ts) + "]")

    # Two subjobs on one processor: HI (tau=1, arrivals 0, 4, 8, ...) and
    # LO (tau=2, arrivals 0, 5, 10, ...).
    hi_times = np.arange(0.0, 12.0, 4.0)
    lo_times = np.arange(0.0, 12.0, 5.0)
    tau_hi, tau_lo = 1.0, 2.0

    print("\n== Definitions 1 and 3: arrival and workload functions ==")
    f_hi = Curve.step_from_times(hi_times, 1.0)
    c_hi = Curve.step_from_times(hi_times, tau_hi)
    c_lo = Curve.step_from_times(lo_times, tau_lo)
    show("f_arr HI", f_hi, ts)
    show("c HI", c_hi, ts)
    show("c LO", c_lo, ts)

    print("\n== Theorem 3: exact SPP service functions ==")
    s_hi = service_transform(Curve.identity(), c_hi, t_end=20.0)
    a_lo = identity_minus(sum_curves([s_hi]))  # availability below HI
    s_lo = service_transform(a_lo, c_lo, t_end=20.0)
    show("S HI (prio 1)", s_hi, ts)
    show("A LO = t - S_HI", a_lo, ts)
    show("S LO (prio 2)", s_lo, ts)

    print("\n== Theorems 1 and 2: departures and response times ==")
    for name, s, tau, arr in [("HI", s_hi, tau_hi, hi_times), ("LO", s_lo, tau_lo, lo_times)]:
        m = np.arange(1, len(arr) + 1)
        completions = np.atleast_1d(s.first_crossing(tau * m))
        responses = completions - arr
        print(f"  {name}: completions {np.round(completions, 2)}")
        print(f"      responses   {np.round(responses, 2)}  ->  d = {responses.max():.2f}")

    print("\n== Theorems 5/6: SPNP bounds (blocking b_HI = tau_LO, Eq. 15) ==")
    b_hi = tau_lo  # Eq. 15: HI can be blocked by a just-started LO
    s_hi_th5 = service_transform(
        identity_minus(Curve.zero(), lateness=b_hi, mode="lower"),
        c_hi,
        lag=b_hi,
        t_end=20.0,
    )
    s_hi_upper = service_transform(Curve.identity(), c_hi, t_end=20.0)
    show("S_lower HI (Th.5)", s_hi_th5, ts)
    show("S_upper HI", s_hi_upper, ts)
    print(
        "  NOTE: the literal Theorem-5 curve can exceed the dedicated-\n"
        "  processor upper bound (its lagged window [0, t-b] drops the\n"
        "  arrived-work cap) -- one of the reasons the analysis pipeline\n"
        "  uses busy-window departure bounds instead; see DESIGN.md."
    )

    print("\n== Sound SPNP per-instance departure bounds (pipeline form) ==")
    from repro.analysis.hopbounds import priority_departure_bound

    dep_hi = priority_departure_bound(
        [], [], c_hi, hi_times, tau_hi, blocking=b_hi
    )
    print(f"  HI worst-case completions: {np.round(dep_hi, 2)}")
    print(f"  HI worst-case responses:   {np.round(dep_hi - hi_times, 2)}")
    assert np.all(dep_hi >= hi_times + tau_hi - 1e-9)

    print("\n== Theorems 7/8/9: FCFS utilization and service bounds ==")
    g = sum_curves([c_hi, c_lo])  # Eq. 21
    u = fcfs_utilization(g, t_end=20.0)  # Eq. 20
    lo_b, up_b = fcfs_service_bounds(c_hi, g, tau_hi, t_end=20.0, U=u)
    show("G (total workload)", g, ts)
    show("U (Theorem 7)", u, ts)
    show("S_lower HI (FCFS)", lo_b, ts)
    show("S_upper HI (FCFS)", up_b, ts)
    assert up_b.dominates(lo_b)

    print("\nAll dominance relations verified.")


if __name__ == "__main__":
    main()
