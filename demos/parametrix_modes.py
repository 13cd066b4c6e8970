"""Mode-by-mode behaviour of the FFT right inverse on the model edge.

The input is a smooth bump in x, zero outside (0.05, 0.8); ``mapping_bounds``
reads that support in x <= 1 from the samples and rejects any input that is
nonzero beyond x = 1.  The component count of the section picks the order:
2 components the first-order system, 1 the second-order operator.

Run:  python3 demos/parametrix_modes.py
"""

import numpy as np

from edgespec.grids import build_grid
from edgespec.parametrix import mapping_bounds, smooth_section

grid = build_grid(200, 1e-2, 1e2)
n_y = 64
y = np.arange(n_y) * 2 * np.pi / n_y
prof = np.ones(n_y)
for k in range(1, n_y // 2 + 1):
    prof += np.cos(k * y) * 0.95 ** k

for n_c, power in ((2, 1), (1, 2)):
    rep = mapping_bounds(smooth_section(grid, prof, n_c), (2.1,), grid)
    print(f"order {power} ({n_c}-component section):")
    print(f"  discrete right-inverse residual: {rep.residual_rel:.2e}")
    print(f"  ||X^-{power} Qu|| / ||u||       : {rep.w11_bound:.4f}")
    print(f"  fitted envelope constant C     : {rep.fitted_c:.4f}")
    xis = np.asarray(rep.xi_modes)
    ratios = np.asarray(rep.per_mode_decay)
    print("  per-mode inverse norms vs C (1+|xi|)^-%d:" % power)
    for xi in (0, 2, 8, 32):
        r = ratios[np.abs(xis) == xi].max()
        env = rep.fitted_c * (1 + xi) ** (-power)
        bar = "#" * max(1, int(50 * (r / ratios.max())))
        print(f"    xi = {xi:3d}:  {r:.4f}  <= {env:.4f}  {bar}")
    print()
