"""The calibration reference, timed in a process of its own.

    python3 benchmark/reference.py

Prints ``ready`` once numpy is imported, then answers every line it reads
on standard input, the number of a CPU, with the wall seconds of one run
of the fixed reference work on that CPU, and exits at the end of its
input. ``Reference`` starts one and asks it for timings between the runs
of the work it calibrates, so that nothing the measured program leaves
running (BLAS threads spinning after their last call, thread pools) is
inside the timed loop.
"""

import os
import statistics
import subprocess
import sys
import time

# Wall seconds of one reference run on an unloaded host of the kind the
# benchmark was tuned on; a calibrated time is a wall time times this over
# the reference's wall time at the moment.
NOMINAL_S = 0.035
# Reference runs per measurement, on the usable CPUs in turn: the CPUs of
# a shared host slow down independently, and the measured work uses them all.
SAMPLES = 4


def reference_s(data) -> float:
    """Wall time of fixed interpreter-bound work: a Python loop and small sorts."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(10):
        np.sort(data)
    return time.perf_counter() - start


class Reference:
    """A reference process; ``measure()`` is the median of ``SAMPLES`` timings."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the reference process did not start")

    def measure(self) -> float:
        times = []
        for i in range(SAMPLES):
            self.proc.stdin.write(f"{self.cpus[i % len(self.cpus)]}\n")
            self.proc.stdin.flush()
            times.append(float(self.proc.stdout.readline()))
        return statistics.median(times)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> int:
    import numpy as np

    data = np.random.default_rng(0).random(250_000)
    print("ready", flush=True)
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)})
        print(repr(reference_s(data)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve())
