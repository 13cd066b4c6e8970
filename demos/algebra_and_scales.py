"""Exact operator algebra and the interpolation-scale laboratory.

Run:  python3 demos/algebra_and_scales.py
"""

import numpy as np

from edgespec.clifford import (build_clifford, commutator_report,
                               symbolic_square_identity)
from edgespec.scales import (TENSOR_CHECK_TOL, intersection_scale_check,
                             random_generator, random_psd_block,
                             same_scale_demo, tensor_positivity_check,
                             tensor_power_error)

print("Clifford structure (exact in complex128: small Gaussian integers):")
_, _, _, gamma, s_sign, t_sign = build_clifford()
eye = np.eye(4)
print("  Gamma^2 = -I:", np.array_equal(gamma @ gamma, -eye))
print("  Gamma skew, orthogonal:", np.array_equal(gamma.T, -gamma),
      np.array_equal(gamma.T @ gamma, eye))
names = ("{Gamma,S}", "{Gamma,T}", "[T,S]")
for name, mat in zip(names, commutator_report()):
    print(f"  {name} = 0:", np.array_equal(mat, np.zeros((4, 4))))
lhs, rhs = symbolic_square_identity()
print("  D^2 = -d^2 + X^-2 S(S+1) + T^2 (on a generic section, sympy):",
      lhs == rhs)

print("\nInterpolation scales:")
rng = np.random.default_rng(20240617)
g1, g2 = random_generator(5, rng), random_generator(4, rng)
ok = tensor_power_error(g1, g2) <= TENSOR_CHECK_TOL
print("  tensor power identity (Lambda1 x Lambda2)^s = "
      f"Lambda1^s x Lambda2^s: {'ok' if ok else 'FAILED'}")
rep = intersection_scale_check(g1, g2, s=1.3, theta=0.4, trials=200)
print(f"  sandwich / theta inequalities: {rep['violations']} violations "
      f"in {rep['trials']} trials")
pos = tensor_positivity_check(random_psd_block(3, 2, rng),
                              random_psd_block(3, 2, rng), trials=200)
print(f"  blockwise tensor positivity: lambda_min = "
      f"{pos['lambda_min_tensor']:.2e} (monotone: "
      f"{pos['lambda_min_monotone']:.2e})")

print("\nTwo scales, same spaces, different boundary fingerprints:")
demo = same_scale_demo(a=1.0, n=400)
print("  eigenvalue    |f'(0)+a f(0)|/sup   |f'(0)|/sup")
for f in demo["eigenfunctions"]:
    print(f"  {f['eigenvalue']:10.4f}   {f['resid_a_condition']:.2e}"
          f"            {f['resid_zero_condition']:.2e}")
print("the a-dependent natural condition emerges without being imposed.")
