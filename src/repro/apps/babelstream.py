"""``babelstream``: the GPU memory-bandwidth benchmark.

BabelStream maps its three work arrays once and then runs the five STREAM
kernels (copy, mul, add, triad, dot) for a configurable number of
iterations.  The offload port re-initialises and re-maps the dot-product
partial-sum buffer on every iteration; because the host always sends the
same zeroed buffer and tears the mapping down again afterwards, the run
accumulates exactly ``iterations - 1`` duplicate transfers and
``iterations - 1`` repeated allocations — the paper notes these are an
intentional part of the benchmark's methodology (each test run is supposed
to be independent), which is why there is no "fixed" variant.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppVariant, BenchmarkApp, ProblemSize, Program, unsupported_variant
from repro.omp.mapping import tofrom
from repro.omp.runtime import OffloadRuntime


class BabelStreamApp(BenchmarkApp):
    """Five STREAM kernels over three large device-resident arrays."""

    name = "babelstream"
    domain = "Memory Bandwidth"
    suite = "BabelStream"
    description = "STREAM triad-style bandwidth benchmark with a per-iteration dot reduction."

    #: number of partial sums produced by the dot kernel
    _DOT_GROUPS = 256

    def parameters(self, size: ProblemSize) -> dict:
        iterations = {
            ProblemSize.SMALL: 100,
            ProblemSize.MEDIUM: 500,
            ProblemSize.LARGE: 2500,
        }[size]
        elements = {
            ProblemSize.SMALL: 1 << 13,
            ProblemSize.MEDIUM: 1 << 14,
            ProblemSize.LARGE: 1 << 14,
        }[size]
        return {"iterations": iterations, "elements": elements}

    def build_program(self, size: ProblemSize, variant: AppVariant) -> Program:
        params = self.parameters(size)
        if variant in (AppVariant.BASELINE, AppVariant.SYNTHETIC):
            # Table 1 lists "babelstream (syn)" with the same counts as the
            # baseline: no extra issues are injected.
            return self._build(params)
        raise unsupported_variant(self.name, variant)

    def _build(self, params: dict) -> Program:
        iterations = params["iterations"]
        elements = params["elements"]

        def program(rt: OffloadRuntime) -> None:
            a = np.full(elements, 0.1, dtype=np.float64)
            b = np.full(elements, 0.2, dtype=np.float64)
            c = np.zeros(elements, dtype=np.float64)
            sums = np.zeros(self._DOT_GROUPS, dtype=np.float64)
            # The reference benchmark uses scalar=0.4 and lets the array values
            # grow; the coefficients below keep the linear recurrence's spectral
            # radius just under one so values stay finite and distinct across
            # thousands of iterations (no overflow, no flush-to-zero), and
            # content hashes only repeat where the mapping pattern genuinely
            # repeats data.
            scalar = 0.999
            rt.host_compute(nbytes=a.nbytes * 3)

            stream_kernel_time = elements * 8 * 3 * 1.2e-12 + 6e-6

            with rt.target_data(
                tofrom(a, name="a"), tofrom(b, name="b"), tofrom(c, name="c")
            ):
                for _ in range(iterations):
                    rt.target(reads=[a], writes=[c],
                              kernel=lambda dev: dev[c].__setitem__(slice(None), dev[a]),
                              kernel_time=stream_kernel_time, name="copy")
                    rt.target(reads=[c], writes=[b],
                              kernel=lambda dev: dev[b].__setitem__(slice(None), scalar * dev[c]),
                              kernel_time=stream_kernel_time, name="mul")
                    rt.target(reads=[a, b], writes=[c],
                              kernel=lambda dev: dev[c].__setitem__(
                                  slice(None), 0.5 * (dev[a] + dev[b])),
                              kernel_time=stream_kernel_time, name="add")
                    rt.target(reads=[b, c], writes=[a],
                              kernel=lambda dev: dev[a].__setitem__(
                                  slice(None), 0.5 * dev[b] + 0.5 * scalar * dev[c]),
                              kernel_time=stream_kernel_time, name="triad")
                    # The dot kernel re-maps (and re-zeroes) its partial-sum
                    # buffer on every iteration: the DD/RA source.
                    sums[:] = 0.0
                    rt.target(
                        maps=[tofrom(sums, name="sums")],
                        reads=[a, b, sums],
                        writes=[sums],
                        kernel=lambda dev: dev[sums].__setitem__(
                            slice(None),
                            np.add.reduceat(dev[a] * dev[b],
                                            np.linspace(0, elements, self._DOT_GROUPS,
                                                        endpoint=False, dtype=np.int64)),
                        ),
                        kernel_time=stream_kernel_time,
                        name="dot",
                    )
                    rt.host_compute(nbytes=sums.nbytes)  # host-side final reduction
            rt.host_compute(nbytes=a.nbytes)  # verification

        return program
