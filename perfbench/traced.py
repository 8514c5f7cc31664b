"""Traced replay worker: the steps of `gdpipe run`, in-process and wrapped.

Runs what the CLI's `run` command does, through public calls only:
read_trace -> compute_bases (static mode) -> run_pipeline -> bit-exact
check, with every layer boundary wrapped by spans.instrument. Then it
replays once more with the wrappers removed, so the tracing overhead is
measured. It runs as its own process so the memory high-water marks start
from a clean interpreter.

    python3 perfbench/traced.py --workload NAME --trace-file PATH --out JSON
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gdpipe import GdError, cli, pipeline, traces  # noqa: E402

import spans  # noqa: E402


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace-file", required=True)
    ap.add_argument("--out", required=True)
    opts = ap.parse_args()

    workload = json.loads((HERE / "workloads.json").read_text())["workloads"][opts.workload]
    argv = [a.format(trace=opts.trace_file, report="unused") for a in workload["command"][3:]]
    args = cli.build_parser().parse_args(argv)

    m = traces.m_for_chunk_bits(workload["trace"]["chunk_bits"])
    delay = math.inf if args.mode == "no-table" else args.delay
    config = pipeline.PipelineConfig(m=m, id_width=args.id_width, learning_delay=delay,
                                     alignment_padding=args.padding)
    # warm the code tables first, so traced and untraced replays start alike
    warm = traces.Trace(config.chunk_bits, bytes(config.chunk_bits // 8 * 64))
    pipeline.run_pipeline(warm, config, args.gap)

    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    rss = {}
    problems: list[str] = []

    trace = traces.read_trace(opts.trace_file)
    rss["read"] = rss_mb()
    preload = pipeline.compute_bases(trace, config) if args.mode == "static" else None
    rss["bases"] = rss_mb()
    restored, counters, (raw, encoded) = pipeline.run_pipeline(
        trace, config, args.gap, preload=preload)
    rss["replay"] = rss_mb()

    def verify():
        try:
            counters.verify()
        except GdError as exc:
            problems.append(f"counters: {exc}")
        if counters.decode_miss:
            problems.append(f"{counters.decode_miss} frames hit a decode miss")
        if restored.payload != trace.payload:
            problems.append("restored trace is not bit-identical to the input")

    tracer.wrap("cli.verify", verify)()
    report = cli.RunReport(
        mode=args.mode, raw_bytes=raw, encoded_bytes=encoded,
        ratio=(encoded / raw) if raw else 0.0, counters=counters,
        chunks=trace.chunk_count, config=config, gap=args.gap,
        gzip_bytes=args.gzip_bytes)
    restore()
    del restored

    t0 = time.perf_counter()
    pipeline.run_pipeline(trace, config, args.gap, preload=preload)
    untraced_s = time.perf_counter() - t0

    result = {
        **tracer.dump(),
        "learn_p50_us": tracer.percentile_us("dictionary.learn", 50),
        "learn_p99_us": tracer.percentile_us("dictionary.learn", 99),
        "rss_mb": rss,
        "counters": counters.as_dict(),
        "report": "".join(line + "\n" for line in report.lines()),
        "untraced_run_pipeline_s": untraced_s,
        "problems": problems,
    }
    Path(opts.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
