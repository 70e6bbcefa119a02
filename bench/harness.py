"""The benchmark's own arithmetic: verdict tallies, the tail percentile,
span self times and the reference pace. Nothing here imports the program
under test."""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict

# Tail percentiles in thousandths of a percent, so that ranks are exact
# integer arithmetic: p50, p90, p99, p99.9. The ladder stops at p99.9 so
# that a run of 10k to 124k centralizer ops always reports the same step.
TAIL_LADDER = (50_000, 90_000, 99_000, 99_900)
MIN_BEYOND = 10

# The reference loop: fixed pure-Python work of function calls, dict and
# set lookups and tuple comparisons, the mix the program's kernels are made
# of. It allocates nothing the cyclic garbage collector tracks, so the
# program's heap does not change its cost. REF_NOMINAL_S is its time at the
# fast one of the two speeds a 2-core Xeon VM switches between, when run
# from the pacer's timer; scaled times are in seconds at that speed.
REF_ROUNDS = 250
REF_NOMINAL_S = 55e-6
_REF_TABLE = {k: frozenset(range(k % 7, 64, 7)) for k in range(64)}
_REF_KEYS = tuple((k % 5, k % 3) for k in range(64))


def nearest_rank(sorted_values, pct_milli):
    """Nearest-rank percentile: the smallest sample with at least
    ``pct_milli / 1000`` percent of the samples at or below it."""
    n = len(sorted_values)
    rank = max(1, -(-pct_milli * n // 100_000))
    return sorted_values[rank - 1], n - rank


def tail(samples):
    """The highest ladder percentile that has at least ten samples beyond
    it, as ``(percentile, value, samples_beyond)``.

    With fewer than twenty samples no ladder step qualifies and the maximum
    is reported as p100 with nothing beyond it.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    best = (100.0, ordered[-1], 0)
    for pct_milli in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct_milli)
        if beyond >= MIN_BEYOND:
            best = (pct_milli / 1000, value, beyond)
    return best


def _reference_step(table, k, i):
    return (i >> 3) & 63 in table[k]


def reference_loop(rounds=REF_ROUNDS):
    table, keys, hits = _REF_TABLE, _REF_KEYS, 0
    for i in range(rounds):
        k = i & 63
        if _reference_step(table, k, i):
            hits += 1
        if keys[k] < keys[(k + 7) & 63]:
            hits ^= k
    return hits


class Pacer:
    """Op times scaled to a fixed machine speed.

    On a shared core the interpreter's speed switches between two levels
    about 1.5x apart, several times a second, and the share of time spent at
    each level changes from one minute to the next. While the pacer is on,
    a profiling timer interrupts the process every ``every_s`` of CPU time
    and the handler times the reference loop. An interval's raw time is its
    wall time less the samples taken inside it; its scaled time is the raw
    time multiplied by ``nominal_s`` over the mean of the samples inside the
    interval and the one just before and just after it. The program never runs the
    reference loop, so a change to the program moves only the raw times.
    """

    def __init__(self, every_s=0.005, nominal_s=REF_NOMINAL_S):
        self.every_s = every_s
        self.nominal_s = nominal_s
        self.at, self.took = array("d"), array("d")
        self.intervals = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        self.record_sample(start, time.perf_counter() - start)

    def record_sample(self, at, took):
        self.at.append(at)
        self.took.append(took)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample(None, None)

    def add(self, start, end):
        self.intervals.append((start, end))

    def interval(self, start, end):
        """``(scaled, raw)`` seconds of the wall-clock interval."""
        first, last = bisect_left(self.at, start), bisect_right(self.at, end)
        raw = end - start - sum(self.took[first:last])
        window = self.took[max(0, first - 1):last + 1]
        if not window:
            raise ValueError("no reference sample")
        return raw * self.nominal_s * len(window) / sum(window), raw

    def times(self):
        """``(scaled, raw)`` lists over the intervals added so far."""
        pairs = [self.interval(start, end) for start, end in self.intervals]
        return [scaled for scaled, _ in pairs], [raw for _, raw in pairs]


def median(samples):
    return nearest_rank(sorted(samples), 50_000)[0]


class Tally:
    """Verdicts attempted and failed. An op fails when it raises or when its
    output disagrees with the known answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = Counter()

    def record(self, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems[problem] += 1

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


class Tracer:
    """In-memory spans and counts recorded around calls into the program.

    Spans nest on one thread. A span's self time is its duration minus the
    durations of its direct children, so over a root span the self times of
    all spans add up to the root's duration. The first ``keep`` spans are
    kept as ``(id, parent_id, name, start, end)`` records to be written out;
    every span counts in the per-name totals.
    """

    def __init__(self, clock=time.perf_counter, keep=100_000):
        self.clock = clock
        self.keep = keep
        self.stack = []  # frames: [name, start, child_seconds, span_id]
        self.active = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self.dropped = 0
        self._next_id = 0

    def enter(self, name):
        self._next_id += 1
        self.active[name] += 1
        self.stack.append([name, self.clock(), 0.0, self._next_id])

    def exit(self):
        end = self.clock()
        name, start, child_s, span_id = self.stack.pop()
        duration = end - start
        self.active[name] -= 1
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        self.calls[name] += 1
        parent_id = None
        if self.stack:
            self.stack[-1][2] += duration
            parent_id = self.stack[-1][3]
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent_id, name, start, end))
        else:
            self.dropped += 1

    def inside(self, name):
        return self.active[name] > 0
