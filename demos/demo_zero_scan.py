"""Hunting critical-line zeros with two independent routes: eta locates
and proves each zero, F certifies it.

Both routes watch Hardy's function Z(b) = e^(i theta(b)) zeta(1/2 + ib),
which is real on the critical line, so every simple zero is a sign change
of one real function and a bracket is any scan step where Z changes sign.
One rule proves a zero on either route: Z has opposite signs at two points,
each beyond its own error bound there.  The oracle route (accelerated
alternating series for eta) scans the line and shrinks each bracket once to
width 1e-9 by ITP steps (regula falsi kept within a bisection-derived
radius); it accepts the zero when some bracket of that sequence passes the
rule, and a bracket where none does is an error.  The integral route
(quadrature of F on a rotated ray, divided by Gamma in log form) then
certifies each zero on its own values: the same rule at b* - h and b* + h,
for some h from 1e-10 up to 1e-6.  Because the ray
integral and Stirling's log Gamma meet in log form, the integral route
keeps its resolution where F and Gamma themselves underflow (past b ~ 470).
"""

from etazeros import scan_critical_line
from etazeros.zerofinder import find_zeros

brackets = scan_critical_line(10.0, 30.0, 0.25)
print("oracle-scan brackets on [10, 30] (Z at the step ends):")
for br in brackets:
    print(f"  [{br.b_lo:.2f}, {br.b_hi:.2f}]  Z = {br.indicator_lo:+.3e} -> "
          f"{br.indicator_hi:+.3e}")

zeros = find_zeros(10.0, 30.0, 0.25)
print("\nrefined zeros (oracle route) and the integral route's sign change:")
for z in zeros:
    if z["integral_certified"]:
        cert = f"{z['b_star_integral']:.9f}  (gap {z['route_gap']:.2e})"
    else:
        cert = "not certified"
    print(f"  b* = {z['b_star']:.9f}   |Z| = {z['residual_eta']:.1e}   "
          f"integral route: {cert}")

print("\npast b ~ 476 |Gamma(1/2+ib)| and F underflow to 0; Z does not:")
for z in find_zeros(480.0, 483.0, 0.25):
    gap = "n/a" if z["route_gap"] is None else f"{z['route_gap']:.1e}"
    print(f"  b* = {z['b_star']:.9f}   |F| = {z['residual']:.1e}   "
          f"|Z| = {z['residual_eta']:.1e}   gap {gap}   "
          f"integral sign change: {z['integral_certified']}")
