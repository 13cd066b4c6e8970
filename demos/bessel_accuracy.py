"""Tour of the modified Bessel evaluator and its error accounting.

Run:  python3 demos/bessel_accuracy.py
"""

import math

import numpy as np

from edgespec.bessel import (ASYMPTOTIC_MIN_ORDER, bessel_i, bessel_k,
                             uniform_asymptotic_excess, wronskian_residual)

print("Branches: ascending series / Temme / Steed continued fractions and,")
print("for x >> nu^2, Hankel's expansion below order "
      f"{ASYMPTOTIC_MIN_ORDER:.0f}; 4-term uniform asymptotics above.\n")

print("Point values with their guaranteed relative error bounds:")
for nu, x in ((2.0, 1.0), (2.5, 3.0), (5.0, 1.0)):
    i = bessel_i(nu, x)
    k = bessel_k(nu, x)
    print(f"  I_{nu}({x}) = {i.value:.12g}   (err <= {i.err_bound:.1e},"
          f" {i.method})")
    print(f"  K_{nu}({x}) = {k.value:.12g}   (err <= {k.err_bound:.1e},"
          f" {k.method})")

print("\nExtreme parameters stay finite in scaled mode:")
i = bessel_i(1e4, 1e6, scaled=True)
k = bessel_k(1e4, 1e6, scaled=True)
print(f"  scaled I_1e4(1e6) = {i.value:.6g},  scaled K = {k.value:.6g}")

print("\nLarge arguments go to Hankel's expansion with its DLMF 10.40 bound;")
print("CF1 would need about 6 sqrt(x) steps here, beyond its 20000-step cap:")
i = bessel_i(2.0, 1e9, scaled=True)
print(f"  scaled I_2(1e9) = {i.value:.15g}   (err <= {i.err_bound:.1e},"
      f" {i.method})")

print("\nWronskian identity x (I_nu K_nu+1 + I_nu+1 K_nu) = 1,")
print("worst residual over a 50x50 (nu, x) log grid:")
nus = np.exp(np.linspace(math.log(0.5), math.log(50.0), 50))
xs = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 50))
print(f"  {wronskian_residual(nus, xs):.3e}")

print("\nUniform asymptotics vs the recurrence branch (true error / bound):")
xg = np.exp(np.linspace(math.log(0.5), math.log(400.0), 25))
mus = (10.0, 20.0, 40.0)
for mu, (excess, bound) in zip(mus, uniform_asymptotic_excess(mus, xg)):
    print(f"  mu = {mu:5.1f}: worst error/bound {excess:.2e},"
          f" largest bound {bound:.2e}")
print("the bound contracts ~16x per octave of mu (mu^-4 scaling).")
