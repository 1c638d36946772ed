"""Case II: customer operation rows, a greedy baseline, and the transient fleet.

Part 1 replaces the aggregate power band with customer-specified rows: in
each 10-unit block the big unit 1 excludes units 2 and 3 (and unit 10
excludes 8 and 9), and units 4..7 across all blocks share a budget.  The row
matrix is totally unimodular, so the boxed LP relaxation solves the
linearized slot problem exactly.  A greedy-on-the-true-payoff baseline shows
why one-shot linearization is worth having: greedy happily burns the
exclusive unit 1 and locks out two units behind it.

Part 2 gives some units a transient shutdown: after an OFF command they keep
cooling with a decaying exponential.  The field stops being decision-affine,
the two derivative concepts separate, and the convex-combination one (which
prices a flip by what the flip actually does to the field) comes out ahead
on average over sampled linearization points.

Command-line equivalents:

    combidyn optimize --scenario scenarios/case2_tu_m20.yaml --grid 201 --scheme rk4
    combidyn compare-derivatives --scenario scenarios/transient_m20.yaml \
        --grid 501 --scheme rk4 --samples 40 --format report
"""

import numpy as np

from combidyn import (
    TimeGrid,
    default_scenario,
    integrate,
    run_receding_horizon,
    slot_payoff,
    slot_picks,
    solve_greedy,
    step_constraints,
    step_system,
)

print("=== Part 1: customer operation rows (Case II) ===")
scenario = default_scenario(20, seed=7, case="tu")
print("rows: unit 1 excludes 2 and 3, unit 10 excludes 8 and 9 (per block);")
print(f"units 4..7 of both blocks share a budget of {scenario.case.z_bar[0]:.0f}"
      f" ({scenario.case.z_bar[8]:.0f} at peak steps)")

results = run_receding_horizon(
    scenario, kind="standard", solver="tu", grid_points=201, scheme="rk4",
    with_oracle=True,
)

# Each slot's exact payoff: the fleet's quadratic part is probed in
# the first slot and completed per slot from its all-off path.
grid = TimeGrid(scenario.step_hours, 201)
x, fleet = scenario.params.x0, None
greedy_better = 0
for res in results:
    spec = step_system(scenario, x)
    con, _band = step_constraints(scenario, res.step)
    assert np.all(con.rows @ res.alpha <= con.rhs + 1e-9)
    base_path = integrate(spec, np.zeros(20), grid, "rk4")
    payoff, fleet = slot_payoff(scenario, spec, "rk4", base_path, fleet)
    greedy = solve_greedy(payoff, con, 20)
    if payoff(greedy) > res.payoff + 1e-9:
        greedy_better += 1
    x = res.temperatures_end

ratios = [r.oracle_ratio for r in results]
print(f"all operation rows satisfied at every step; oracle ratio min "
      f"{min(ratios):.3f}, mean {np.mean(ratios):.3f}")
print(f"greedy beat the certified pick on {greedy_better} of {len(results)} steps")
exclusive_on = sum(int(r.alpha[0]) for r in results)
blocked_on = sum(int(r.alpha[1] + r.alpha[2]) for r in results)
print(f"exclusive unit 1 was ON {exclusive_on} slots; the two units it blocks "
      f"got {blocked_on} slots combined")

print()
print("=== Part 2: transient shutdown separates the two derivatives ===")
tsc = default_scenario(20, seed=7, transient=True)
spec = step_system(tsc, tsc.params.x0)
con, band = step_constraints(tsc, 1)
grid = TimeGrid(tsc.step_hours, 501)

rng = np.random.default_rng(99)
totals = {"standard": 0.0, "nonstandard": 0.0}
samples = 30
for s in range(samples):
    base = np.zeros(20) if s == 0 else rng.integers(0, 2, 20).astype(float)
    picks = slot_picks(spec, base, con, band, tuple(totals), "tu", grid, "rk4")
    for kind, pick in picks.items():
        totals[kind] += pick.payoff

print(f"average slot payoff over {samples} sampled linearization points:")
print(f"  relaxation-based derivative   : {totals['standard'] / samples:.4f}")
print(f"  convex-combination derivative : {totals['nonstandard'] / samples:.4f}")
print("the relaxed derivative inflates entries of already-ON transient units")
print("(their cooling term has slope xi*t in the decision at u = 1), so it")
print("over-favors keeping them ON; the secant view prices the actual flip.")
