"""The benchmark's tracer still sees the library calls it counts.

``bench/tracing.py`` wraps the layer functions by name and reads call shapes
from their leading arguments, so a change to a name or an argument position
it relies on would make traced benchmark runs read zero silently.  This runs
a small sweep cell, a small parametrix and one large-order Bessel value under
the tracer; the tracer counts Bessel arguments only for functions whose
parameters start ``(nu, x)``.
"""

from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"

COUNTED = ("model.sweep.cells", "grids.nystrom.calls",
           "kernels.matrix.calls", "grids.operator_norm.calls",
           "grids.fd_assemble.calls", "parametrix.lu_factor.calls",
           "parametrix.modes", "bessel.calls", "bessel.args",
           "bessel.large_nu.args", "kernels.bessel_calls_per_assembly")


def test_traced_layers_are_counted(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import setup_probe
    import tracing
    es = setup_probe.import_edgespec()
    tracer = tracing.Tracer(es, "contract", 0)
    tracer.install()
    try:
        es.model.uniform_bound_sweep(es.model.FiberSpectrum((1.1,)), [1.0],
                                     grid_n=32)
        grid = es.grids.build_grid(64, 1e-2, 1e2)
        # 2 components build the first-order modes, 1 the second-order ones
        # through fd_assemble_model
        for n_c in (2, 1):
            s = np.zeros((grid.n, 2, 1, n_c))
            s[(grid.nodes > 0.05) & (grid.nodes < 0.8)] = 1.0
            es.parametrix.mapping_bounds(es.parametrix.EdgeFunction(s),
                                         (2.1,), grid)
        es.bessel.bessel_i(300.0, 1.0, scaled=True)
    finally:
        tracer.remove()
    metrics = tracing.layer_metrics(tracer.spans)
    assert all(metrics[name] > 0 for name in COUNTED), {
        name: metrics[name] for name in COUNTED}
