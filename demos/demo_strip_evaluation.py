"""Evaluating F, gamma and zeta on the critical strip.

F(s) = int t^(s-1)/(e^t+1) dt is entire in the strip and ties to zeta by
F(s) = (1 - 2^(1-s)) gamma(s) zeta(s), so zeta inherits its zeros.
F is integrated on a ray rotated towards the imaginary axis and gamma comes
from Stirling's series, so each keeps its relative accuracy as it decays
like e^(-pi b/2): the quadrature route and gamma times the accelerated
alternating series agree to better than 1e-12 of |F|, out to b = 100 where
|F| is near 2e-68.  Each evaluator, eta too, returns a (value, err) pair.
Past b ~ 470 F and gamma underflow; the ray's integral in scaled form,
F = exp(log_scale) I, still gives zeta there.
"""

import math

from etazeros import F, Gamma, zeta_from_F
from etazeros.special import one_minus_two_pow
from etazeros.zerofinder import eta_oracle

print("real-axis sanity:")
print(f"  F(1)      = {F(1.0)[0].real:.15f}   (log 2 = {math.log(2):.15f})")
print(f"  F(2)      = {F(2.0)[0].real:.15f}   (pi^2/12 = {math.pi**2/12:.15f})")
print(f"  gamma(5)  = {Gamma(5.0)[0].real:.12f}")
print(f"  zeta(1/2) = {zeta_from_F(0.5, *F(0.5, scaled=True))[0].real:.12f}")

print()
print("on the critical line the integral and series routes agree:")
for b in (5.0, 14.2, 21.0, 100.0):
    s = complex(0.5, b)
    f, _ = F(s)
    eta, eta_err = eta_oracle(s)
    rhs = Gamma(s)[0] * eta
    print(f"  b={b:5.1f}:  F = {f: .6e}   gamma*eta = {rhs: .6e}   "
          f"|diff|/|F| = {abs(f - rhs) / abs(f):.2e}   eta err {eta_err:.1e}")

print()
print("near the first zero ordinate the value collapses:")
for b in (14.0, 14.1, 14.134725, 14.2):
    s = complex(0.5, b)
    z = eta_oracle(s)[0] / one_minus_two_pow(s)
    print(f"  |F(1/2 + {b}i)| = {abs(F(s)[0]):.3e}    |zeta| = {abs(z):.3e}")

print()
print("past b ~ 470 F underflows to 0, but its scaled form keeps zeta:")
for b in (480.0, 1000.7):
    s = complex(0.5, b)
    z, z_err = zeta_from_F(s, *F(s, scaled=True))
    print(f"  b={b:6.1f}:  |F| = {abs(F(s)[0]):.1e}   zeta = {z:.10f}   "
          f"err {z_err:.1e}")
