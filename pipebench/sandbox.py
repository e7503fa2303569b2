"""Per-call CPU-time budgets and a warm-up pass whose failures leave no trace.

A call runs under a CPU-time interval timer; when the budget runs out the
handler raises :class:`CallTimeout`, a ``BaseException`` so no
``except Exception`` in the library swallows it.

A call that fails may still have filled some lazy cache on its way (a
killed triple enumeration leaves the smaller sets behind), and that would
make the next case cheaper by an amount that depends on when it was killed.
So the warm-up pass runs in batches, each starting with a :class:`Checkpoint`
— a forked copy of the process that waits, untouched, on a pipe.  If a batch
completes, the copy is released.  If a case fails, the copy is promoted: it
receives the batch's outcomes and spans, replays the batch's successful
cases with tracing paused to rebuild exactly the caches they filled, skips
the failed case and carries on as the worker.  The failed process then only
waits for its copy and exits with its status.  Each process waits for the
one it forked, so nothing outlives the benchmark.

Fork is safe here because BLAS is pinned to one thread before numpy loads,
so the process has no other threads.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


BATCH_SECONDS = 0.25    # wall time after which a warm-up batch takes a new checkpoint


class CallTimeout(BaseException):
    """The per-call budget ran out."""


def _on_timer(signum, frame):
    raise CallTimeout()


@contextmanager
def budget(seconds: float, cpu: bool = True):
    """Raise CallTimeout in the body after ``seconds`` of process CPU time.

    CPU time keeps the outcome independent of how busy the machine is; a
    wall-clock timer at three times the budget catches a call that waits.
    With ``cpu`` false only the wall-clock timer is armed: while a process
    CPU timer is armed, the process CPU clock reads in 4 ms ticks.
    """
    previous = [signal.signal(sig, _on_timer) for sig in (signal.SIGPROF, signal.SIGALRM)]
    if cpu:
        signal.setitimer(signal.ITIMER_PROF, seconds)
    signal.setitimer(signal.ITIMER_REAL, 3.0 * seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGPROF, previous[0])
        signal.signal(signal.SIGALRM, previous[1])


def settle_cpu_clock() -> None:
    """Burn CPU for a few scheduler ticks after the budget's CPU timer.

    Once a process CPU timer is disarmed, the process CPU clock stays at tick
    resolution until a tick finds no timer armed.
    """
    end = time.perf_counter() + 0.02
    while time.perf_counter() < end:
        pass


@dataclass
class Outcome:
    """What one call did.  ``kind`` is ok, timeout, error or wrong;
    ``elapsed`` is wall time and ``cpu`` the process's CPU time, in seconds."""

    case: str
    kind: str
    elapsed: float
    cpu: float = 0.0
    answer: str = ""
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.kind != "ok"


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _exit_code(status: int) -> int:
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


class Checkpoint:
    """A forked, waiting copy of the current process.

    In the original, ``promotion`` is None.  In the copy, construction
    returns only if the copy is promoted, with ``promotion`` holding the
    payload; a released copy exits.
    """

    def __init__(self):
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(write_fd)
            data = _read_all(read_fd)
            os.close(read_fd)
            if not data:
                os._exit(0)
            self.pid = None
            self.promotion = pickle.loads(data)
            return
        os.close(read_fd)
        self.pid = pid
        self.promotion = None
        self._write_fd = write_fd

    def release(self) -> None:
        os.close(self._write_fd)
        os.waitpid(self.pid, 0)

    def promote(self, payload) -> None:
        """Hand over to the copy, wait for it to finish, exit with its status."""
        data = pickle.dumps(payload)
        view = memoryview(data)
        while view:
            view = view[os.write(self._write_fd, view):]
        os.close(self._write_fd)
        _, status = os.waitpid(self.pid, 0)
        os._exit(_exit_code(status))


def warm_up(cases, run, tracer=None,
            batch_cases: int = 32) -> tuple[list[Outcome], list[str], float]:
    """First execution of every case, failures rolled back.

    ``run(index, case)`` returns an Outcome.  Returns the outcomes in case
    order, notes about replays that did not reproduce, and the peak RSS
    over every process the pass went through.
    """
    outcomes: list[Outcome] = []
    notes: list[str] = []
    peak = 0.0
    i = 0
    while i < len(cases):
        mark = tracer.mark() if tracer else 0
        ckpt = Checkpoint()
        if ckpt.promotion is not None:
            got, spans, peak_before = ckpt.promotion
            peak = max(peak, peak_before)
            if tracer:
                tracer.adopt(mark, spans)
                tracer.recording = False
            for k, first in enumerate(got[:-1]):
                again = run(i + k, cases[i + k])
                if again.kind != first.kind or again.answer != first.answer:
                    notes.append(f"{first.case}: replay gave {again.kind} {again.answer}, "
                                 f"first run {first.kind} {first.answer}")
            if tracer:
                tracer.recording = True
            outcomes.extend(got)
            i += len(got)
            continue
        got = []
        spent = 0.0
        while i + len(got) < len(cases) and len(got) < batch_cases and spent < BATCH_SECONDS:
            out = run(i + len(got), cases[i + len(got)])
            got.append(out)
            spent += out.elapsed
            if out.failed:
                spans = tracer.since(mark) if tracer else []
                ckpt.promote((got, spans, max(peak, peak_rss_mb())))
        ckpt.release()
        outcomes.extend(got)
        i += len(got)
    return outcomes, notes, max(peak, peak_rss_mb())
