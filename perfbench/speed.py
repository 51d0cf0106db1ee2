"""CPU speed sampling, so op times can be given at one reference speed.

The shared virtual machine the benchmark was written on switches between
two speeds about 1.8x apart, every 1-20 s, and process CPU time moves with
it: a fixed op of 0.4 s reads 0.25 s or 0.45 s depending on when it runs.
A run-level median then depends on how much of the run fell into the slow
phase, which no amount of repetition inside a run evens out.

``Sampler`` measures the speed while an op runs.  A profiling timer
(``ITIMER_PROF``, which counts the process's CPU time) fires every
``INTERVAL`` CPU seconds, and the handler times a small fixed kernel of
the benchmark's own: pure-Python float arithmetic, indexing and dict
stores, the bulk of what the curveplan layers run.  It imports nothing, so
numpy's import stays in the set-up time.  One sample more is taken before
and after the op.  The op's CPU time, less the time spent in the samples,
is scaled by the mean of ``REF_KERNEL_S / kernel time`` over the samples:
the work done in each CPU interval counts at the speed measured in it.
The result is what the op would take on a CPU that runs the kernel in
``REF_KERNEL_S``.

The kernel is the benchmark's, not curveplan's, so a change to curveplan
cannot move it; the result moves only when the work curveplan does moves.
"""

import signal
import time

#: CPU seconds between samples while an op runs
INTERVAL = 0.02
#: kernel time that defines the reference speed: about its time, run
#: between the ops' own work, in the fast phase of the 2-core Xeon virtual
#: machine the benchmark was written on; a reference second is then about
#: a CPU second there
REF_KERNEL_S = 1.3e-4

#: a sample slower than this many reference kernels was preempted
PREEMPTED = 4.0

_VEC = tuple(float(i) for i in range(8))


def kernel():
    """A fixed small job; returns its wall seconds.

    Wall time, because process CPU time on that machine advances in
    scheduler ticks, far coarser than the job.
    """
    clock = time.perf_counter
    t0 = clock()
    acc = 0.0
    store = {}
    for i in range(540):
        acc += (i * 0.37) % 1.3
        store[i & 15] = acc
        acc += _VEC[i & 7] * 0.5
    return clock() - t0


class Sampler:
    """Context manager: speed samples taken while the block runs.

    ``own_s`` is the time spent in the samples, to be taken off the block's
    CPU time; ``scale()`` is the factor that turns the remaining CPU
    seconds into reference seconds.
    """

    def __init__(self):
        self.samples = []
        self.own_s = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.own_s += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()
        return False

    def scale(self):
        # a sample the host preempted reads far slower than either speed
        kept = [k for k in self.samples if k < PREEMPTED * REF_KERNEL_S] or self.samples
        return sum(REF_KERNEL_S / k for k in kept) / len(kept)


def timed(fn):
    """Run ``fn()``; returns (its result, reference seconds, CPU seconds)."""
    with Sampler() as sampler:
        own0 = sampler.own_s  # the sample taken on entry is outside the block
        t0 = time.process_time()
        result = fn()
        cpu = time.process_time() - t0 - (sampler.own_s - own0)
    return result, cpu * sampler.scale(), cpu
