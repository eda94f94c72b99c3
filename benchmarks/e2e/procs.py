"""Small measurement helpers shared by the harness modules.

`pin` and `Reference` make timings comparable between runs on a host
whose speed changes (README, "Timings at nominal speed").  Process
accounting reads ``/proc`` so one mechanism covers the harness
itself, the server subprocess and the executor's site workers (which
cannot report their own ``getrusage`` without changes inside ``src/``).
"""

from __future__ import annotations

import os
import pickle
import statistics
import subprocess
import sys
import time
from typing import Callable, Sequence

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: CPUs this process may use, read before anything is pinned.
try:
    CPUS = sorted(os.sched_getaffinity(0))
except AttributeError:  # not Linux
    CPUS = []
#: A phase is cut into about this many consecutive blocks of equal operation
#: count (fewer when a block would hold under MIN_BLOCK operations).
BLOCKS, MIN_BLOCK = 12, 8
#: The reference probe is timed again once its last timing is this old.
REFERENCE_EVERY_S = 0.02


def pin() -> None:
    """Best effort: keep this process, and what it starts, on the last usable CPU.

    The benchmark host is a small shared VM.  A thread that wakes on an
    idle vCPU pays a trip through the hypervisor whose length follows the
    *host's* load, and a GIL-bound program gains little from a second
    core.  With the program, its callers and the reference probe on one
    core, none of them waits for a wake-up, and the reference probe sees
    the slowdown the program sees.
    """
    if len(CPUS) > 1:
        try:
            os.sched_setaffinity(0, {CPUS[-1]})
        except OSError:
            pass


class Reference:
    """A fixed probe of interpreter, allocator and kernel work, timed between operations.

    Other tenants of the host slow this VM down by up to half for seconds
    or minutes at a time (measured: one and the same batch reads 25 ms or
    42 ms within five minutes), so a raw timing is a property of the host
    as much as of the program.  The probe never changes and does not touch
    the program, so the ratio of a timing to the probe's time *next to it*
    is a property of the program alone.  Every timing the benchmark
    reports is that ratio, block by block, times NOMINAL_S: the timing on
    a host on which the probe takes exactly one millisecond (what it takes
    on this host when nobody disturbs it).

    The probe has three parts of about equal length, because the host's
    disturbance has more than one part and the program feels them all: a
    loop the interpreter runs out of the first-level cache, a pickle round
    trip (allocation and memory traffic), and pipe round trips to an echo
    process on the same CPU (system calls and the scheduler).  Over five
    disturbed minutes of `serve-heavy` the raw five-second means spread
    with a standard deviation of 12 %, their ratios to the loop alone
    with 6 %, to pipe and pickle round trips together with 3 %; in four
    more minutes with this probe, 10 % raw and 3.7 % as a ratio.
    """

    NOMINAL_S = 1e-3
    _ECHO = "import os\nwhile True:\n    b = os.read(0, 4096)\n    if not b: break\n    os.write(1, b)\n"
    _BLOB = pickle.dumps(
        [(f"n{i}", (i, i * 3, f"t{i % 11}"), [i % 7, i % 5]) for i in range(420)]
    )
    _PAYLOAD = b"x" * 1024

    def __init__(self) -> None:
        self.samples: list = []
        self._taken = 0.0
        self._echo = None

    def _start_echo(self) -> None:
        # Started late, so that it inherits the CPU the harness was pinned to.
        self._echo = subprocess.Popen(
            [sys.executable, "-c", self._ECHO],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        )
        self._to, self._from = self._echo.stdin.fileno(), self._echo.stdout.fileno()

    def close(self) -> None:
        """Stop the echo process and wait for it."""
        if self._echo is None:
            return
        self._echo.stdin.close()
        try:
            self._echo.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._echo.kill()
            self._echo.wait()
        self._echo.stdout.close()
        self._echo = None

    def sample(self) -> float:
        if self._echo is None:
            self._start_echo()
        started = time.perf_counter()
        table, acc = {}, 0
        for index in range(2400):
            table[index & 255] = acc
            acc = (acc * 31 + index) & 0xFFFFFF
            if acc & 1:
                acc ^= len(table)
        pickle.dumps(pickle.loads(self._BLOB))
        for _ in range(60):
            os.write(self._to, self._PAYLOAD)
            os.read(self._from, 4096)
        self._taken = time.perf_counter()
        self.samples.append(self._taken - started)
        return self.samples[-1]

    def near(self) -> float:
        """The probe's time just now (timed again if the last timing is old)."""
        if time.perf_counter() - self._taken >= REFERENCE_EVERY_S:
            self.sample()
        return self.samples[-1]

    def burst(self, count: int = 5) -> float:
        return statistics.median(self.sample() for _ in range(count))

    @classmethod
    def slowdown(cls, near_s: float) -> float:
        """The host's speed when the probe took ``near_s``, against nominal."""
        return near_s / cls.NOMINAL_S

    @classmethod
    def at_nominal_speed(
        cls, values: Sequence[float], near: Sequence[float], of: Callable,
        rate: bool = False, cycle: int = 1,
    ) -> float:
        """``of(block of values)`` at the nominal speed.

        ``near[i]`` is the probe's time next to ``values[i]``.  The phase is
        cut into consecutive blocks and each block's statistic is corrected
        by the slowdown the probe saw during that block.  Operations repeat
        with a period of ``cycle``; a block holds whole periods where it
        can, so every block holds the same mix of cheap and dear ones.
        The host's disturbance only ever adds time, so the corrected blocks
        are summarised by their quartile on the fast side, not their median.
        """
        size = max(len(values) // BLOCKS, MIN_BLOCK)
        size = min(len(values), max(cycle, size // cycle * cycle))
        corrected = []
        for start in range(0, len(values) - size + 1, size):
            slowdown = cls.slowdown(statistics.median(near[start : start + size]))
            value = of(values[start : start + size])
            corrected.append(value * slowdown if rate else value / slowdown)
        return fast_quartile(corrected, lower=not rate)


def fast_quartile(values: Sequence[float], lower: bool) -> float:
    """The lower (a time) or upper (a rate) quartile; the value itself if alone."""
    if len(values) < 2:
        return values[0]
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[0] if lower else quartiles[2]


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # The command name may hold spaces; fields are counted after it.
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty sample (``share`` in 0..1)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(share * (len(ordered) - 1)))))
    return ordered[rank]
