"""Folding the oscillatory tail into positive half-period contributions.

Each full period of f(t, a) sin(b log t) beyond R folds onto its positive
half-wave with the difference kernel h; on t >= 1 with a <= e/(e+1) every
folded contribution is positive, and its size is sandwiched by the min/max
of h times the universal sine average A in (2/pi - 2/(pi b^2), 2/pi).
"""

from etazeros import interval_average, make_plan, upper_integral
from etazeros.decomposition import POSITIVITY_A_MAX, interval_contributions

a, b = 0.5, 100.0
plan = make_plan(a, b)
print(f"plan at (a, b) = ({a}, {b}): K = {plan.K}, R = {plan.R:.8f}, "
      f"c = {plan.c:.8f}")
print(f"first half-period: [{plan.half_period(plan.K)[0]:.6f}, "
      f"{plan.half_period(plan.K)[1]:.6f}]")

total, err = upper_integral(plan)
print(f"\ntail integral (paired sum): {total:.12e}  (err {err:.1e})")

rows = interval_contributions(plan, 12)
print("\nper-period contributions (all positive):")
for r in rows:
    print(f"  k={r['k']:3d}  [{r['t_lo']:.4f}, {r['t_hi']:.4f}]  "
          f"{r['contribution']:+.6e}   cumulative {r['cumulative']:.6e}")

closed, by_quad = interval_average(0, b)
print(f"\nhalf-period sine average at b = {b}: closed {closed:.12f}, "
      f"quadrature {by_quad:.12f}")
print(f"positivity of the folded kernel holds up to a = "
      f"{POSITIVITY_A_MAX:.10f}")
