"""One set-up sample: import edgespec and make the first warm-up call.

Run as ``python3 bench/setup_probe.py <src-dir>`` in a fresh interpreter;
prints the seconds from before the first edgespec import to the end of the
warm-up.  ``bench/run.py`` starts it several times and reports the median
as ``setup_s``; it also calls ``warm_up`` itself before timing any pass.
"""

import sys
import time
import types


def warm_up(es):
    """Fill the program's lazy state: the sympy first call, the Olver
    polynomial lru_cache and a first small Nystrom assembly and norm."""
    es.clifford.commutator_report()
    es.bessel.bessel_i(300.0, 1.0, scaled=True)
    es.model.uniform_bound_sweep(es.model.FiberSpectrum((1.1,)), [1.0],
                                 grid_n=32)


def import_edgespec():
    """The edgespec modules the workloads use, as one namespace."""
    import edgespec.bessel
    import edgespec.cli
    import edgespec.clifford
    import edgespec.grids
    import edgespec.kernels
    import edgespec.model
    import edgespec.parametrix
    import edgespec.scales
    return types.SimpleNamespace(
        package=edgespec, bessel=edgespec.bessel, kernels=edgespec.kernels,
        grids=edgespec.grids, model=edgespec.model,
        parametrix=edgespec.parametrix, clifford=edgespec.clifford,
        scales=edgespec.scales, cli=edgespec.cli)


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    es = import_edgespec()
    warm_up(es)
    print(repr(time.perf_counter() - t0))
