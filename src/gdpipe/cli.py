"""Command-line front end: code tables, trace generation, replay runs,
throughput benchmarks, and payload export for external baselines.

Exit codes: 0 success, 1 invariant violation during a run, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .dictionary import read_snapshot
from .gdcore import GdError, build_code, format_syndrome_table
from .pipeline import (
    WINDOW_BYTES,
    Counters,
    InvariantViolation,
    PipelineConfig,
    replay,
    replay_static,
)
from .traces import (
    TraceFile,
    TraceSpec,
    gen_synthetic,
    m_for_chunk_bits,
    write_trace,
)

DEFAULT_DELAY = 1.77e-3
DEFAULT_GAP = 1e-6


@dataclass
class RunReport:
    """Result of one replay: sizes, exact ratio, counters."""

    mode: str
    raw_bytes: int
    encoded_bytes: int
    ratio: float
    counters: Counters
    chunks: int
    config: PipelineConfig
    gap: float
    gzip_bytes: int | None = None

    def lines(self) -> list[str]:
        out = [
            f"mode={self.mode}",
            f"m={self.config.m}",
            f"id_width={self.config.id_width}",
            f"learning_delay={self.config.learning_delay!r}",
            f"gap={self.gap!r}",
            f"alignment_padding={int(self.config.alignment_padding)}",
            f"chunks={self.chunks}",
            f"raw_bytes={self.raw_bytes}",
            f"encoded_bytes={self.encoded_bytes}",
            f"ratio={self.ratio!r}",
        ]
        if self.gzip_bytes is not None:
            out.append(f"gzip_bytes={self.gzip_bytes}")
            if self.raw_bytes:
                out.append(f"gzip_ratio={self.gzip_bytes / self.raw_bytes!r}")
        out += [f"{name}={value}" for name, value in self.counters.as_dict().items()]
        return out


def _cmd_tables(args) -> int:
    code = build_code(args.m)
    print(f"code ({code.n},{code.k}) m={code.m} "
          f"generator {code.generator} low_bits 0x{code.generator.low_bits:X}")
    print(format_syndrome_table(code))
    return 0


def _cmd_gen(args) -> int:
    spec = TraceSpec(
        seed=args.seed,
        chunk_count=args.count,
        chunk_bits=1 << args.m,
        distinct_bases=args.bases,
        codeword_prob=args.codeword_prob,
        basis_distribution=args.distribution,
        msb=None if args.msb == "random" else int(args.msb),
    )
    try:
        trace = gen_synthetic(spec)
    except MemoryError:
        raise GdError(f"not enough memory for a trace of {spec.chunk_count} chunks "
                      f"over {spec.distinct_bases} bases") from None
    write_trace(trace, args.out)
    print(f"wrote {trace.chunk_count} chunks of {trace.chunk_bits} bits to {args.out}")
    return 0


def _refuse_overwrite(source, *outs, what="trace") -> None:
    """GdError if an output path names the input `what` or another output:
    the same inode and device, or for a path not there yet the same real path."""
    def key(path):
        return os.stat(path)[1:3] if os.path.exists(path) else os.path.realpath(path)
    named = {key(source): f"the input {what} itself"}
    for out in filter(None, outs):
        if (k := key(out)) in named:
            raise GdError(f"output {out} is {named[k]}")
        named[k] = f"another output, {out}"


def _cmd_run(args) -> int:
    _refuse_overwrite(args.trace, args.report, args.snapshot_out)
    if args.snapshot_in is not None:  # --snapshot-out may name it: an update in place
        _refuse_overwrite(args.snapshot_in, args.report, what="snapshot")
    if args.snapshot_in is not None and args.mode != "static":
        raise GdError(f"--snapshot-in preloads static mode only, not {args.mode}")
    if args.gzip_bytes is not None and args.gzip_bytes < 0:
        raise GdError(f"--gzip-bytes must be >= 0, got {args.gzip_bytes}")
    with TraceFile(args.trace) as source:
        m = m_for_chunk_bits(source.chunk_bits)
        config = PipelineConfig(m=m, id_width=args.id_width, learning_delay=args.delay,
                                alignment_padding=args.padding)
        if args.mode == "no-table":  # --delay is checked in every mode
            config = replace(config, learning_delay=math.inf)
        if args.mode == "static" and args.snapshot_in is None:
            counters, (raw, encoded), state = replay_static(source, config, args.gap)
        else:  # a snapshot loads as the dictionary to start from
            state = None if args.snapshot_in is None else read_snapshot(
                args.snapshot_in, args.id_width, basis_bits=(1 << m) - 1 - m)
            counters, (raw, encoded), state = replay(source, config, args.gap, state=state)

    report = RunReport(
        mode=args.mode, raw_bytes=raw, encoded_bytes=encoded,
        ratio=(encoded / raw) if raw else 0.0, counters=counters,
        chunks=source.chunk_count, config=config, gap=args.gap,
        gzip_bytes=args.gzip_bytes)
    print(f"{args.mode}: {raw} -> {encoded} bytes "
          f"(ratio {report.ratio:.6g}, savings {100 * (1 - report.ratio):.1f}%)"
          if raw else f"{args.mode}: empty trace")
    print(counters.report())
    if args.report:
        Path(args.report).write_text("".join(line + "\n" for line in report.lines()))
    if args.snapshot_out:
        state.save(args.snapshot_out)
    return 0


def _cmd_bench(args) -> int:
    """Time `run --mode static`'s one replay with default delay and gap."""
    with TraceFile(args.trace) as source:
        config = PipelineConfig(m=m_for_chunk_bits(source.chunk_bits),
                                id_width=args.id_width, learning_delay=DEFAULT_DELAY)
        t0 = time.perf_counter()
        _, (raw, encoded), _ = replay_static(source, config, DEFAULT_GAP)
        secs = time.perf_counter() - t0

    count = source.chunk_count
    print(f"chunks={count} raw_bytes={raw} encoded_bytes={encoded}")
    rate = count / secs if secs else float("inf")
    gbps = raw * 8 / secs / 1e9 if secs else float("inf")
    print(f"replay_s={secs:.3f} replay_chunks_per_s={rate:.0f} replay_gbit_per_s={gbps:.3f}")
    print("roundtrip_ok=1")
    return 0


def _cmd_export_payloads(args) -> int:
    _refuse_overwrite(args.trace, args.out)
    with TraceFile(args.trace) as source, open(args.out, "wb") as out:
        for window in source.windows(WINDOW_BYTES):
            out.write(window)
    print(f"wrote {source.nbytes} payload bytes to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdpipe",
        description="Generalized-deduplication compression over Hamming/CRC transforms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="print code parameters and the syndrome table")
    p.add_argument("--m", type=int, required=True, help="parity bits (3..15)")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("gen", help="generate a synthetic trace file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=3_124_000)
    p.add_argument("--m", type=int, default=8, help="chunk size is 2^m bits")
    p.add_argument("--bases", type=int, default=100)
    p.add_argument("--codeword-prob", type=float, default=0.2)
    p.add_argument("--distribution", choices=["uniform", "round-robin"],
                   default="uniform")
    p.add_argument("--msb", choices=["0", "1", "random"], default="random")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="replay a trace through the pipeline")
    p.add_argument("trace")
    p.add_argument("--mode", choices=["no-table", "static", "dynamic"],
                   required=True)
    p.add_argument("--delay", type=float, default=DEFAULT_DELAY,
                   help="learning delay in seconds (dynamic, and static past the ID space)")
    p.add_argument("--gap", type=float, default=DEFAULT_GAP,
                   help="inter-arrival time in seconds")
    p.add_argument("--padding", action="store_true",
                   help="byte-alignment padding on SYN_BASIS frames")
    p.add_argument("--id-width", type=int, default=15)
    p.add_argument("--snapshot-in", help="pre-load the dictionary (static mode)")
    p.add_argument("--snapshot-out", help="save the final dictionary")
    p.add_argument("--report", help="write key=value report lines to this file")
    p.add_argument("--gzip-bytes", type=int, default=None,
                   help="externally measured gzip size to include in the report")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="time the static replay of `run` (informational)")
    p.add_argument("trace")
    p.add_argument("--id-width", type=int, default=15)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("export-payloads",
                       help="concatenate raw chunk payloads into one file")
    p.add_argument("trace")
    p.add_argument("out")
    p.set_defaults(func=_cmd_export_payloads)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (GdError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
