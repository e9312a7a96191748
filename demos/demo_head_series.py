"""The head integral as a coefficient series.

With R on an even phase node (b log R = 2 K pi) and R < pi, the oscillatory
head integral becomes an explicit series in the kernel derivatives.  The
phase alignment is structural: nudge R off the node and the identity breaks
by many orders of magnitude.
"""

import math

from etazeros import choose_K_R, series_lower_integral
from etazeros.series import _series_sum, lower_integral_by_quadrature

a, b = 0.5, 100.0
K, R = choose_K_R(b)
print(f"largest admissible node under 2 at b = {b}: K = {K}, R = {R:.10f}")

head, tail_bound = series_lower_integral(a, b, K, R, tol=1e-13)
quad, quad_err = lower_integral_by_quadrature(a, b, R)
print(f"series     : {head:.15e}  (tail bound {tail_bound:.1e})")
print(f"quadrature : {quad:.15e}  (err est {quad_err:.1e})")
print(f"difference : {abs(head - quad):.2e}")

print()
print("convergence of the truncated series (tail bound vs observed change):")
prev = None
for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
    v, n, bound = _series_sum(a, b, R, tol)
    delta = "" if prev is None else f"   change {abs(v - prev):.2e}"
    print(f"  tol={tol:.0e}: {n:2d} terms, bound {bound:.2e}{delta}")
    prev = v

print()
print("phase alignment matters: shift R by a quarter half-period")
r_shift = R * math.exp(math.pi / (2.0 * b))
v_series, _, _ = _series_sum(a, b, r_shift, tol=1e-13)
v_quad, _ = lower_integral_by_quadrature(a, b, r_shift)
print(f"  series formula at R' : {v_series:.10e}")
print(f"  true integral at R'  : {v_quad:.10e}")
print(f"  mismatch             : {abs(v_series - v_quad):.2e}  "
      "(the identity needs b log R on the 2 pi lattice)")
