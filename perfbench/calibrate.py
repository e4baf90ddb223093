"""Host speed probe: a fixed pure-Python workload timed during every run.

The benchmark's host changes speed by up to 2x in phases that last from
seconds to minutes (another tenant sharing the CPU core, by the look of
it), and about a third of the runs see a change of phase while they run.
So a run's time is scaled by how long this probe takes while the run is in
progress: ``Sampler`` runs a short slice of it from a SIGALRM handler every
``TICK_S`` and subtracts the time of those slices from the run's. Runs too
short for a tick use ``probe()`` taken just before and after them.

The probe mimics planwright's hot path in kind (small objects, attribute
and method calls, list splicing, dict lookups, float arithmetic) and never
imports planwright, so a change to the program cannot move it. On a shared
2-vCPU VM (Python 3.11) the probe and a `frame` run both slowed by 1.9x in
the slow phase; a dict-and-str loop slowed alike, a Fraction loop by 1.5x.
"""

from __future__ import annotations

import signal
import time

# Seconds per round of the probe in the host's fast phase (2-vCPU VM,
# Python 3.11.7). Scaled times are seconds at that speed; the constant only
# sets the scale and cancels in any comparison of two commits.
REFERENCE_S = 2.33e-5
ROUNDS = 300  # probe(): about 7 ms at the reference speed
TRIES = 3
# One in-run slice: a few untimed rounds bring the probe back into the CPU
# caches the run has been using, then TICK_ROUNDS are timed (about 0.5 ms),
# so the run's memory use does not leak into the speed it is scaled by.
WARM_ROUNDS = 5
TICK_ROUNDS = 20
TICK_S = 0.025


class _Piece:
    __slots__ = ("start", "end", "tag")

    def __init__(self, start: float, end: float, tag: str) -> None:
        self.start, self.end, self.tag = start, end, tag

    def length(self) -> float:
        return self.end - self.start


class _Stock:
    def __init__(self, length: float) -> None:
        self.pieces = [_Piece(0.0, length, "s")]

    def cut(self, x: float) -> float:
        for k, p in enumerate(self.pieces):
            if p.start < x < p.end:
                self.pieces[k:k + 1] = [_Piece(p.start, x, p.tag),
                                        _Piece(x, p.end, p.tag)]
                return p.length()
        return 0.0


def _work(rounds: int) -> float:
    total = 0.0
    for r in range(rounds):
        stock, seen = _Stock(96.0), {}
        for j in range(1, 12):
            x = (j * 7.3 + r) % 96.0
            cut = stock.cut(x)
            key = (round(x), j % 3)
            if seen.get(key) == cut:
                total += 0.5
            seen[key] = cut
            total += cut * 0.01
        total += sum(p.length() for p in
                     sorted(stock.pieces, key=lambda p: (p.tag, p.start)))
    return total


def probe() -> float:
    """Seconds per round now: the fastest of a few back-to-back tries."""
    best = float("inf")
    for _ in range(TRIES):
        start = time.perf_counter()
        _work(ROUNDS)
        best = min(best, time.perf_counter() - start)
    return best / ROUNDS


class Sampler:
    """Times a slice of the probe every ``TICK_S`` inside the block.

    ``rounds_s`` holds each slice's timed seconds per round; ``spent`` is
    the time the slices took in all, which the caller subtracts from the
    block's time.
    """

    def __init__(self) -> None:
        self.rounds_s: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _work(WARM_ROUNDS)
        warm = time.perf_counter()
        _work(TICK_ROUNDS)
        end = time.perf_counter()
        self.rounds_s.append((end - warm) / TICK_ROUNDS)
        self.spent += end - start

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
