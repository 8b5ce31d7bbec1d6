"""Times calls together with the speed the machine ran them at.

On a shared virtual CPU the same work runs at one of two speeds, about
1.65 times apart, and each virtual CPU switches between them on its own,
within fractions of a second to seconds. A `Speedometer` therefore samples
the speed all through a timed call. A SIGALRM every PERIOD_S interrupts the
main thread, which reads from /proc how much CPU time each of the process's
threads used since the last sample and on which CPU each last ran, moves
itself onto each such CPU in turn and times a fixed probe of pure-Python
work there. The call's CPU time is scaled to the reference speed (at which
the probe takes REFERENCE_PROBE_S) by the mean speed of the samples,
weighted by the CPU time each stands for; the rest of the call's time
(waiting on the endpoint or the disk) is kept as measured. The sampling's
own time is taken out of both.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from time import perf_counter, process_time, thread_time

PERIOD_S = 0.05
# the probe's thread CPU time at which the machine counts as running at
# reference speed: its time at the faster of the two speeds of a 2.1 GHz Xeon
REFERENCE_PROBE_S = 0.0003
TASKS = "/proc/self/task"


def _reference_work() -> int:
    """Fixed pure-Python work of the kinds the package spends its time on:
    string formatting and joining, dict inserts, JSON and a sort."""
    parts, table = [], {}
    for i in range(300):
        text = "edu %d (%s)" % (i, "x" * (i % 17))
        parts.append(text)
        table[text] = len(text)
    joined = " | ".join(parts)
    json.loads(json.dumps(table))
    return len(joined) + len(sorted(table, key=table.get))


def _probe() -> float:
    """The speed of the CPU this thread is on, as a share of the reference."""
    # the first run brings the probe's code and data back into the caches
    _reference_work()
    start = thread_time()
    _reference_work()
    return REFERENCE_PROBE_S / (thread_time() - start)


def _threads() -> dict[str, tuple[int, int]]:
    """(CPU time used in ns, CPU last run on) of each thread of this process."""
    threads = {}
    for tid in os.listdir(TASKS):
        try:
            with open(f"{TASKS}/{tid}/schedstat") as handle:
                used_ns = int(handle.read().split()[0])
            with open(f"{TASKS}/{tid}/stat") as handle:
                # the fields after the command name start at field 3, and
                # the processor is field 39
                cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread ended meanwhile
        threads[tid] = (used_ns, cpu)
    return threads


class Speedometer:
    """Times calls in reference seconds. Create and use it in the main
    thread, which is where signal handlers run."""

    def __init__(self) -> None:
        self.main = str(threading.get_native_id())
        self.affinity = os.sched_getaffinity(0)

    def _sample(self, *_signal) -> None:
        wall, cpu = perf_counter(), thread_time()
        threads = _threads()
        used: dict[int, int] = {}
        for tid, (used_ns, on_cpu) in threads.items():
            ran = used_ns - self.seen.get(tid, (0, 0))[0]
            if tid == self.main:
                # the sampling's own CPU time is not the program's
                ran -= self.unread_ns
            if ran > 0:
                used[on_cpu] = used.get(on_cpu, 0) + ran
        self.seen = threads
        read = thread_time()
        try:
            for on_cpu, ran in used.items():
                os.sched_setaffinity(0, {on_cpu})
                self.weighted += ran * _probe()
                self.weight += ran
        finally:
            os.sched_setaffinity(0, self.affinity)
        end = thread_time()
        self.unread_ns = round((end - read) * 1e9)
        self.sampling_cpu += end - cpu
        self.sampling_wall += perf_counter() - wall

    def timed(self, call):
        """Runs ``call()``; returns its result, its time in reference seconds
        and its time as measured, both without the sampling."""
        self.seen = _threads()
        self.unread_ns = 0
        self.weighted = self.weight = 0.0
        self.sampling_wall = self.sampling_cpu = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        wall, cpu = perf_counter(), process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall, cpu = perf_counter() - wall, process_time() - cpu
            signal.signal(signal.SIGALRM, previous)
        wall -= self.sampling_wall
        # worker threads can overlap their CPU time in native code
        cpu = min(cpu - self.sampling_cpu, wall)
        # the rest of the call, after the last alarm
        self._sample()
        speed = self.weighted / self.weight if self.weight else 1.0
        return result, wall - cpu + cpu * speed, wall
