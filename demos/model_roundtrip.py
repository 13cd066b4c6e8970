"""Inverting the scalar model operator and verifying the 2x2 square.

Run:  python3 demos/model_roundtrip.py
"""

import numpy as np

from edgespec.grids import build_grid
from edgespec.model import (FiberSpectrum, check_witt, round_trip_residual,
                            verify_square_identity)

spectrum = FiberSpectrum((1.6, -1.6, 2.6, -2.6))
rep = check_witt(spectrum)
print(f"Witt check: passes={rep.passes}, min|s|={rep.min_abs},"
      f" order floor {rep.implied_nu_floor}\n")

print("round trip g -> K g -> L_h(K g), relative interior residual:")
for n in (200, 400, 800):
    rel = round_trip_residual(2.1, 1.0, build_grid(n, 1e-2, 1e2))
    print(f"  N = {n:4d}:  {rel:.3e}")
print("(second-order contraction: the residual is FD truncation error)\n")

print("first-order 2x2 block squared vs the direct scalar assemblies:")
for n in (400, 800):
    grid = build_grid(n, 1e-1, 10.0)
    t = np.log(grid.nodes)
    u = np.vstack([np.exp(-t ** 2), np.exp(-(t - 0.5) ** 2)])
    out = verify_square_identity(2.1, 1.0, u, grid)
    print(f"  N = {n:4d}:  interior relative discrepancy {out['relative']:.3e}")
print("(composing centered first differences is itself only first-order")
print("accurate against the second-order scalar stencils)")
