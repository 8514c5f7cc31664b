"""Command-line front end: code tables, trace generation, replay runs,
throughput benchmarks, and payload export for external baselines.

Exit codes: 0 success, 1 invariant violation during a run, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .dictionary import DictionaryState, SnapshotError
from .gdcore import UnsupportedM, build_code, format_syndrome_table
from .pipeline import (
    Counters,
    InvariantViolation,
    PipelineConfig,
    compute_bases,
    decode_batch,
    encode_batch,
    run_pipeline,
    syn_basis_nbytes,
    syn_id_nbytes,
)
from .traces import (
    BadMagic,
    InvalidSpec,
    TraceSpec,
    TruncatedFile,
    gen_synthetic,
    m_for_chunk_bits,
    read_trace,
    write_trace,
)

_CONFIG_ERRORS = (UnsupportedM, InvalidSpec, BadMagic, TruncatedFile,
                  SnapshotError, ValueError)


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
    trace = gen_synthetic(spec)
    write_trace(trace, args.out)
    print(f"wrote {trace.chunk_count} chunks of {trace.chunk_bits} bits to {args.out}")
    return 0


def _cmd_run(args) -> int:
    trace = read_trace(args.trace)
    m = m_for_chunk_bits(trace.chunk_bits)
    delay = math.inf if args.mode == "no-table" else args.delay
    config = PipelineConfig(m=m, id_width=args.id_width, learning_delay=delay,
                            alignment_padding=args.padding)
    preload = None
    if args.mode == "static":
        if args.snapshot_in:
            snap = DictionaryState.load(args.snapshot_in, args.id_width,
                                        basis_bits=(1 << m) - 1 - m)
            preload = [basis for _, basis in snap.items()]
        else:
            preload = compute_bases(trace, config)
    holder: list[DictionaryState] = []
    restored, counters, (raw, encoded) = run_pipeline(
        trace, config, args.gap, preload=preload, state_out=holder)
    counters.verify()
    if counters.decode_miss:
        raise InvariantViolation(f"{counters.decode_miss} frames hit a decode miss")
    if restored.payload != trace.payload:
        raise InvariantViolation("restored trace is not bit-identical to the input")

    report = RunReport(
        mode=args.mode, raw_bytes=raw, encoded_bytes=encoded,
        ratio=(encoded / raw) if raw else 0.0, counters=counters,
        chunks=trace.chunk_count, config=config, gap=args.gap,
        gzip_bytes=args.gzip_bytes)
    print(f"{args.mode}: {raw} -> {encoded} bytes "
          f"(ratio {report.ratio:.6g}, savings {100 * (1 - report.ratio):.1f}%)"
          if raw else f"{args.mode}: empty trace")
    print(counters.report())
    if args.report:
        Path(args.report).write_text("".join(line + "\n" for line in report.lines()))
    if args.snapshot_out:
        holder[0].save(args.snapshot_out)
    return 0


def _cmd_bench(args) -> int:
    trace = read_trace(args.trace)
    m = m_for_chunk_bits(trace.chunk_bits)
    config = PipelineConfig(m=m, id_width=args.id_width)
    code = build_code(m)
    count = trace.chunk_count
    width = trace.chunk_nbytes
    raw_bytes = count * width

    bases = compute_bases(trace, config)
    table = {b.to_bytes(width, "big") for b in bases[:1 << config.id_width]}

    t0 = time.perf_counter()
    msb, syn, rows = encode_batch(trace.payload, code)
    buf = rows.tobytes()
    n_si = sum(buf[i * width:(i + 1) * width] in table for i in range(count))
    enc_s = time.perf_counter() - t0
    encoded = (count - n_si) * syn_basis_nbytes(config) + n_si * syn_id_nbytes(config)

    t0 = time.perf_counter()
    restored = decode_batch(rows, syn, msb, code)
    dec_s = time.perf_counter() - t0
    ok = restored == trace.payload

    print(f"chunks={count} raw_bytes={raw_bytes} encoded_bytes={encoded} "
          f"threads={max(args.threads, 1)}")
    for label, secs in (("encode", enc_s), ("decode", dec_s)):
        rate = count / secs if secs else float("inf")
        gbps = raw_bytes * 8 / secs / 1e9 if secs else float("inf")
        print(f"{label}_s={secs:.3f} {label}_chunks_per_s={rate:.0f} "
              f"{label}_gbit_per_s={gbps:.3f}")
    print(f"roundtrip_ok={int(ok)}")
    return 0 if ok else 1


def _cmd_export_payloads(args) -> int:
    trace = read_trace(args.trace)
    Path(args.out).write_bytes(trace.payload)
    print(f"wrote {len(trace.payload)} payload bytes to {args.out}")
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
    p.add_argument("--delay", type=float, default=1.77e-3,
                   help="learning delay in seconds (dynamic mode)")
    p.add_argument("--gap", type=float, default=1e-6,
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

    p = sub.add_parser("bench", help="software encode/decode throughput (informational)")
    p.add_argument("trace")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and echoed; the bench runs on one thread")
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
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
