"""How fast a CPU runs right now, measured by a probe beside the work.

The cores of a shared VM slow down by up to 2x, in phases that last from
seconds to minutes, as other tenants load the host.  Steal time reads 0, so
a process's CPU time inflates exactly as its wall time does, and no sampling
within one run escapes a phase that outlasts it.

``SpeedReference`` runs one probe process per CPU, pinned to it.  Every
PAUSE_S it wakes and runs BURST chunks of a fixed pure-Python kernel, a
bitmask N-queens count: the same mix of small-int bit operations and list
pushes and pops as the search's hot loop.  After each burst it publishes its
chunk count and its own CPU time.  The probes take about 4 % of each core
and see the same slow-downs as the work running there.  ``scale`` turns a
time measured over an interval into seconds at the probes' quiet speed: it
multiplies the time by the probes' chunks per CPU second over the same
interval, then by REF_CHUNK_S.  A program change moves the measured time
and not the probes, so it shows in full.
"""

from __future__ import annotations

import multiprocessing
import os
from time import process_time, sleep

QUEENS = 7
QUEENS_SOLUTIONS = 40
# CPU seconds of one queens(7) chunk on a quiet core of a 2-core x86 VM
# under Python 3.11; it only sets the scale, so results read as seconds.
REF_CHUNK_S = 180e-6
BURST = 20
PAUSE_S = 0.1
# about 18 ms at quiet speed
CALIBRATION = 100


def queens(n: int) -> int:
    """Number of ways to place n non-attacking queens on an n x n board."""
    full = (1 << n) - 1
    count = 0
    cols = left = right = 0
    cand = full
    stack = []
    while True:
        if cand:
            low = cand & -cand
            cand ^= low
            stack.append((cand, cols, left, right))
            cols |= low
            left = ((left | low) << 1) & full
            right = (right | low) >> 1
            if cols == full:
                count += 1
                cand = 0
            else:
                cand = full & ~(cols | left | right)
        elif stack:
            cand, cols, left, right = stack.pop()
        else:
            return count


def _run_chunks(chunks: int) -> None:
    for _ in range(chunks):
        if queens(QUEENS) != QUEENS_SOLUTIONS:
            raise AssertionError("reference kernel miscounted")


def scale_now(seconds: float) -> float:
    """Seconds this process has just spent, at the probes' quiet speed: the
    speed is read by running CALIBRATION chunks here and now, for work too
    short to span a probe's pause."""
    t0 = process_time()
    _run_chunks(CALIBRATION)
    return seconds * CALIBRATION / (process_time() - t0) * REF_CHUNK_S


def _probe(cpu: int, slot: int, shared) -> None:
    os.sched_setaffinity(0, {cpu})
    chunks = 0
    while True:
        _run_chunks(BURST)
        chunks += BURST
        # a read between the two writes is off by one burst at most
        shared[slot + 1] = process_time()
        shared[slot] = chunks
        sleep(PAUSE_S)


class SpeedReference:
    """One probe per CPU in ``cpus`` while the context is open.  Workers
    forked inside the context read the probes through shared memory."""

    def __init__(self, cpus):
        self.cpus = list(cpus)
        ctx = multiprocessing.get_context("fork")
        self._shared = ctx.RawArray("d", 2 * len(self.cpus))
        self._procs = [
            ctx.Process(target=_probe, args=(cpu, 2 * i, self._shared), daemon=True)
            for i, cpu in enumerate(self.cpus)
        ]

    def __enter__(self):
        for proc in self._procs:
            proc.start()
        while any(self._shared[2 * i] == 0 for i in range(len(self._procs))):
            if not all(proc.is_alive() for proc in self._procs):
                self.__exit__()
                raise RuntimeError("a speed probe died")
            sleep(0.01)
        return self

    def __exit__(self, *exc):
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.join()
        return False

    def pin(self, worker: int) -> None:
        """Pin the calling process to the CPU of probe ``worker``."""
        os.sched_setaffinity(0, {self.cpus[worker]})

    def reading(self, worker: int) -> tuple:
        """(chunks, CPU seconds) of probe ``worker`` so far."""
        return self._shared[2 * worker], self._shared[2 * worker + 1]

    def total(self) -> tuple:
        """The readings of every probe, summed."""
        return sum(self._shared[0::2]), sum(self._shared[1::2])

    @staticmethod
    def scale(seconds: float, before: tuple, after: tuple) -> float:
        """Seconds measured between two readings, at the probes' quiet speed."""
        chunks = after[0] - before[0]
        probe_cpu = after[1] - before[1]
        if chunks <= 0 or probe_cpu <= 0:
            raise RuntimeError("the speed probe made no progress over the interval")
        return seconds * chunks / probe_cpu * REF_CHUNK_S
