"""In-memory call tracing for the benchmark's traced run.

The benchmark wraps gdpipe's public functions and methods from outside
(`instrument`); nothing under src/ knows it is traced. Every wrapped call
counts towards its name's totals and adds its duration to the caller's
child time, so self time comes from the nesting of spans. Span records
(id, name, start, end, parent id) are kept for the first `keep` calls of
each name: the per-chunk dictionary reads run millions of times, and
keeping each of those would cost more memory than the replay itself.

A wrapper's own bookkeeping falls outside the span it records, so it
counts as self time of the caller. Where a layer makes millions of
wrapped calls (run_pipeline on paper-static) its self time is inflated
by about the tracing overhead, which the traced run reports as
trace_overhead_s.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import time
from array import array

# names whose every call duration is kept, for medians and percentiles
SAMPLED = ("dictionary.learn", "traces.gen_synthetic", "traces.write_trace")


class Tracer:
    def __init__(self, keep: int = 256):
        self.stats: dict[str, list] = {}      # name -> [calls, seconds, child seconds]
        self.samples: dict[str, array] = {}   # name -> per-call seconds
        self.spans: list[tuple] = []          # (id, name, start, end, parent id or -1)
        self._keep = keep
        self._stack: list[list] = []          # open spans: [id, child seconds]
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        """`fn` with every call recorded under `name`."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.setdefault(name, array("d")) if name in SAMPLED else None
        stack, spans, keep, ids = self._stack, self.spans, self._keep, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                stats[0] += 1
                stats[1] += seconds
                stats[2] += frame[1]
                if parent is not None:
                    parent[1] += seconds
                if samples is not None:
                    samples.append(seconds)
                if stats[0] <= keep:
                    spans.append((frame[0], name, start, end,
                                  -1 if parent is None else parent[0]))

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        _, seconds, child = self.stats.get(name, [0, 0.0, 0.0])
        return seconds - child

    def median_seconds(self, name: str) -> float:
        samples = self.samples.get(name)
        return statistics.median(samples) if samples else 0.0

    def percentile_us(self, name: str, q: int) -> float:
        """The q-th percentile (1..99) of the sampled call durations, in µs."""
        samples = self.samples.get(name)
        if not samples:
            return 0.0
        if len(samples) == 1:
            return samples[0] * 1e6
        return statistics.quantiles(samples, n=100)[q - 1] * 1e6

    def dump(self) -> dict:
        return {"stats": self.stats, "spans": self.spans}

    @classmethod
    def from_dump(cls, dump: dict) -> "Tracer":
        """A read-only view of another process's dump()."""
        tracer = cls()
        tracer.stats, tracer.spans = dump["stats"], dump["spans"]
        return tracer


def instrument(tracer: Tracer):
    """Wrap gdpipe's layer boundaries where callers look them up; returns a
    function that puts the originals back."""
    from gdpipe import dictionary, pipeline, traces

    targets = [
        (traces, "read_trace", "traces.read_trace"),
        (traces, "gen_synthetic", "traces.gen_synthetic"),
        (traces, "write_trace", "traces.write_trace"),
        (pipeline, "compute_bases", "pipeline.compute_bases"),
        (pipeline, "run_pipeline", "pipeline.run_pipeline"),
        # run_pipeline hands m > 13 to the scalar reference world
        (pipeline.Pipeline, "replay", "pipeline.scalar_fallback"),
        (pipeline.ControlPlane, "poll", "pipeline.control.poll"),
        (pipeline.ControlPlane, "submit", "pipeline.control.submit"),
        # pipeline imports the codec by name, so its globals are what the
        # scalar nodes call
        (pipeline, "gd_encode", "gdcore.gd_encode"),
        (pipeline, "gd_decode", "gdcore.gd_decode"),
        # run_pipeline binds these through the class when it starts
        (dictionary.DictionaryState, "lookup_id", "dictionary.lookup_id"),
        (dictionary.DictionaryState, "lookup_basis", "dictionary.lookup_basis"),
        (dictionary.DictionaryState, "learn", "dictionary.learn"),
        (dictionary.DictionaryState, "peek_victim", "dictionary.peek_victim"),
    ]
    originals = []
    for owner, attr, name in targets:
        fn = vars(owner)[attr]
        originals.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(name, fn))

    def restore():
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)

    return restore
