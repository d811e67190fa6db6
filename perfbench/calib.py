"""Host-speed calibration, so that times are comparable across runs.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same pure-Python work takes up to 1.8 times as long for a second or
a minute at a time, in CPU time as much as in wall time, and the two
cores' speeds change independently.  So each child times a fixed
calibration kernel in its own process: before every job that starts
RESAMPLE_S or more after the last sample, after the last job, and every
PERIOD_S of wall time from a SIGALRM handler, so also in the middle of
a long job.  A job's time is scaled by the mean of
REFERENCE_S over the kernel times measured during it and just around
it; a set-up time by REFERENCE_S over the median of PROBE_SAMPLES
kernel times that the probe child takes once it is ready.  A reported
second is a second on a host where the kernel takes REFERENCE_S (a
2-core x86-64 container running CPython 3.11, when it is quiet).  The
handler's own time is taken out of the job's time;
span self times of a traced pass still include it (about 3 %).

The kernel is the benchmark's own code, never `kll`'s: a breadth-first
closure of PSL(2, 11) from two fixed generators, the tuple, integer and
set work that the program's own layers do.  It runs with the garbage
collector off, so a program that leaves a large heap behind cannot
slow the kernel and so hide its own cost.
"""

import gc
import signal
import statistics
import time

import refs

# T and S: they generate SL(2, Z), so their images generate PSL(2, 11),
# 660 elements
GENERATORS = [((1, 1, 0, 1),), ((0, 10, 1, 0),)]
MODULUS = 11
REFERENCE_S = 0.0065
PERIOD_S = 0.25      # wall time between samples within a job
WINDOW_S = 0.05      # samples this close to a job also scale it
RESAMPLE_S = 0.025   # a job this soon after a sample needs no new one
PROBE_SAMPLES = 3    # samples a set-up probe takes once it is ready


def kernel_seconds():
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        refs.closure_size(GENERATORS, [MODULUS])
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Kernel samples, [perf_counter midpoint, kernel seconds], taken on
    request and every PERIOD_S; `stolen` is the time the periodic ones
    took from whatever they interrupted."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0
        self.busy = False

    def sample(self):
        self.busy = True
        t0 = time.perf_counter()
        seconds = kernel_seconds()
        self.samples.append([t0 + seconds / 2, seconds])
        self.busy = False

    def _on_alarm(self, signum, frame):
        if self.busy:
            return
        t0 = time.perf_counter()
        self.sample()
        self.stolen += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed(samples, start, end):
    """Mean of REFERENCE_S over the kernel times of the samples within
    WINDOW_S of [start, end]; of the nearest sample on each side if
    none is that close."""
    near = [s for t, s in samples if start - WINDOW_S <= t <= end + WINDOW_S]
    if not near:
        before = [x for x in samples if x[0] <= start]
        after = [x for x in samples if x[0] >= end]
        near = [s for _, s in ([before[-1]] if before else []) + ([after[0]] if after else [])]
    return statistics.fmean(REFERENCE_S / s for s in near)
