"""Reference kernel, sampled on a timer during each call as a gauge of machine speed.

On a shared host the CPU a run gets is slowed by other tenants, by up to
about 1.7x, in stretches from under a second to minutes.  nlslab's calls and
a fixed kernel slow down together, so the ratio of a call's wall time to the
kernel's time during that call cancels most of it, while a change to nlslab
moves the call and not the kernel.

:class:`ReferenceSampler` runs the kernel from a SIGALRM handler every
PERIOD seconds while a call is in progress.  The handler runs between
Python bytecodes of the call, so the samples are spread over the call and
see the machine as the call sees it.  Their time is subtracted from the
call's wall time.

The kernel has three parts, shaped like the workloads' work: FFT round trips
of 4,096 values with temporaries (the semiclassical reference size, so no
new FFT plan is cached), a compensated sum with a pure-Python loop, and
sparse LU factorisations.  No part calls nlslab.  One sample takes about
30 ms on a 2-core Xeon guest, so sampling costs a call about 6% of its time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD = 0.5  # seconds between samples during a call


class ReferenceKernel:
    def __init__(self):
        import numpy
        import scipy.sparse
        import scipy.sparse.linalg

        self._fft = numpy.fft
        self._splu = scipy.sparse.linalg.splu
        self._wave = numpy.exp(1j * numpy.linspace(0.0, 7.0, 4096))
        self._phase = numpy.exp(-1e-3j * numpy.arange(4096))
        self._floats = [0.5 * i for i in range(1000)]
        n = 1000
        self._matrix = scipy.sparse.diags(
            [numpy.full(n - 1, -1.0), numpy.full(n, 4.0 + 1j), numpy.full(n - 1, -1.0)],
            [-1, 0, 1], format="csc",
        )
        self._rhs = numpy.ones(n, dtype=complex)
        self.run()  # warms the FFT plan cache and lazy imports

    def run(self) -> None:
        fft, y = self._fft, self._wave
        for _ in range(100):
            z = fft.fft(y) * self._phase
            y = fft.ifft(z + 0.5 * z) * (2.0 / 3.0)
        total = 0.0
        for _ in range(20):
            total += math.fsum(self._floats)
            for v in self._floats:
                total += v * 1.0001 if v > 3.0 else -v
        for _ in range(20):
            self._splu(self._matrix).solve(self._rhs)


class ReferenceSampler:
    """Context manager: samples the kernel every PERIOD seconds inside it.

    ``samples`` holds the kernel times and ``spent`` their sum, which the
    caller subtracts from the wall time of the block.
    """

    def __init__(self, kernel: ReferenceKernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> "ReferenceSampler":
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD / 2, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel.run()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def mean(self) -> float:
        """Mean kernel time during the block, or NaN with no sample."""
        return statistics.fmean(self.samples) if self.samples else math.nan
