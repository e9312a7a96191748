"""Hunting critical-line zeros with two independent routes.

The scan watches both components of the line indicator; a bracket needs a
component sign change *and* a tenfold dip of |indicator| under its local
median (one component alone vanishes on harmless nodal curves).  Each
bracket is shrunk to width 1e-9 by ITP steps (regula falsi kept within a
bisection-derived radius), once by the integral route (quadrature of F on a
rotated ray) and once by the oracle route (accelerated alternating series).
|gamma(1/2 + ib)| shrinks like e^(-pi b/2), and so does F's own error
estimate, so the integral route's ordinate resolution,
err_est / (|gamma| |eta'|), stays near 1e-11 from b = 14 to b = 60.
"""

from etazeros import F, scan_critical_line
from etazeros.special import ComplexPoint
from etazeros.zerofinder import find_zeros, gamma_modulus_critical

brackets = scan_critical_line(10.0, 30.0, 0.25, method="oracle")
print("oracle-scan brackets on [10, 30]:")
for br in brackets:
    print(f"  [{br.b_lo:.2f}, {br.b_hi:.2f}]  dip {br.dip:.3e} vs "
          f"median {br.median:.2f}")

zeros, _ = find_zeros(10.0, 30.0, 0.25)
print("\nrefined zeros (oracle route) and the integral route next to them:")
for z in zeros:
    gap = "n/a" if z["route_gap"] is None else f"{z['route_gap']:.2e}"
    print(f"  b* = {z['b_star']:.9f}   |F| = {z['residual']:.1e}   "
          f"integral route: {z['b_star_integral']:.9f}  (gap {gap})")

print("\nwhy the integral route keeps its resolution with height: F's "
      "err_est decays\nwith |gamma(1/2+ib)|")
for b in (14.0, 21.0, 25.0, 30.0, 60.0):
    gam = gamma_modulus_critical(b)
    err = F(ComplexPoint(0.5, b)).err
    print(f"  b={b:5.1f}:  |gamma| = {gam:.3e}   F err_est = {err:.1e} -> "
          f"ordinate resolution ~ {err / (gam * 4):.1e}")
