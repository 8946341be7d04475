"""Reference figures for bench/README.md: the RNG floor at both sampler
shapes, the marginal tabulation, the ``check`` breakdown and the import.

    python3 bench/floors.py

Run from the root of a checkout.  Each figure is the median of several
repeats on this process alone.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

import run


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    print(f"import tamedlmc.cli: {statistics.median(run.import_times(5, probe=True)):.3f} s "
          f"(in-process import), fresh interpreter {statistics.median(run.import_times(5)):.3f} s")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=1, spawn_key=(0,))))
    for shape in ((250, 100), (8000, 2)):
        t = median_time(lambda: gen.standard_normal(shape), 400)
        print(f"PCG64 standard_normal{shape}: {1e6 * t:.1f} us "
              f"({shape[0] * shape[1] / t / 1e6:.1f} M normals/s)")

    modules = run.load_program()
    potentials, metrics, constants = modules["potentials"], modules["metrics"], modules["constants"]
    numerics = modules["numerics"]
    dw100 = potentials.make_double_well(100)
    density = potentials.marginal_pdf(dw100)
    lo, hi = metrics.marginal_support(density.pdf)
    print(f"marginal_pdf(double-well, d=100): {median_time(lambda: potentials.marginal_pdf(dw100), 3):.3f} s")
    print(f"cdf_from_pdf(double-well, d=100, 4096 points): "
          f"{median_time(lambda: metrics.cdf_from_pdf(density.pdf, lo, hi), 3):.3f} s")

    dw10 = potentials.make_double_well(10)
    for k, name in enumerate(("check_assumption_2", "check_assumption_3", "check_assumption_4")):
        fn = getattr(potentials, name)
        t = median_time(lambda: fn(dw10, 10_000, 10.0, numerics.RngStream(0, k)), 3)
        print(f"{name}(double-well, d=10, 10000 points): {t:.3f} s")
    dc = constants.derive_constants(dw10, beta=1.0, d=10)
    print(f"derive_constants(double-well, d=10): "
          f"{median_time(lambda: constants.derive_constants(dw10, beta=1.0, d=10), 3):.3f} s")
    t = median_time(lambda: constants.certify_derived_constants(
        dw10, dc, 10_000, 10.0, numerics.RngStream(0, 3)), 3)
    print(f"certify_derived_constants(double-well, d=10, 10000 points): {t:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
