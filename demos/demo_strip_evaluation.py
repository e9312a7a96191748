"""Evaluating F, gamma and zeta on the critical strip.

F(s) = int t^(s-1)/(e^t+1) dt is entire in the strip and ties to zeta by
(1 - 2^(1-s)) G(s) = F(s) with G = gamma * zeta, so zeta inherits its zeros.
F is integrated on a ray rotated towards the imaginary axis and gamma comes
from Stirling's series, so each keeps its relative accuracy as it decays
like e^(-pi b/2): the quadrature route and gamma times the accelerated
alternating series agree to better than 1e-12 of |F|, out to b = 100 where
|F| is near 2e-68.
"""

import math

from etazeros import F, Gamma, zeta_strip
from etazeros.special import ComplexPoint
from etazeros.zerofinder import eta_oracle, zeta_oracle

print("real-axis sanity:")
print(f"  F(1)      = {F(1.0).value.re:.15f}   (log 2 = {math.log(2):.15f})")
print(f"  F(2)      = {F(2.0).value.re:.15f}   (pi^2/12 = {math.pi**2/12:.15f})")
print(f"  gamma(5)  = {Gamma(5.0).value.re:.12f}")
print(f"  zeta(1/2) = {zeta_strip(0.5).value.re:.12f}")

print()
print("on the critical line the integral and series routes agree:")
for b in (5.0, 14.2, 21.0, 100.0):
    s = ComplexPoint(0.5, b)
    f = F(s).value.value
    rhs = Gamma(s).value.value * eta_oracle(s).value
    print(f"  b={b:5.1f}:  F = {f: .6e}   gamma*eta = {rhs: .6e}   "
          f"|diff|/|F| = {abs(f - rhs) / abs(f):.2e}")

print()
print("near the first zero ordinate the value collapses:")
for b in (14.0, 14.1, 14.134725, 14.2):
    s = ComplexPoint(0.5, b)
    z = zeta_oracle(s)
    print(f"  |F(1/2 + {b}i)| = {abs(F(s).value):.3e}"
          f"    |zeta| = {math.hypot(z.re, z.im):.3e}")
