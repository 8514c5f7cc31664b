"""Correctness gate for one `gdpipe run` report.

A run passes only if its report keeps the counter identities, restored
every chunk without a decode miss, and keeps the exact identity of its
workload. On the default seed the report must also equal the golden
report stored next to this file, byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

COUNTERS = ("RAW_IN", "OUT_SYN_BASIS", "OUT_SYN_ID", "IN_SYN_BASIS", "IN_SYN_ID",
            "RESTORED_RAW", "DIGESTS", "INSTALLS", "EVICTIONS", "DECODE_MISS")


def parse_report(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"report line without '=': {line!r}")
        fields[key] = value
    return fields


def _workload_identity(workload: str, c: dict[str, int], raw: int, enc: int) -> list[str]:
    if workload == "paper-static":
        # every basis is preloaded, so every chunk leaves as a 3-byte SYN_ID
        out = []
        if Fraction(enc, raw) != Fraction(3, 32):
            out.append("static ratio is not exactly 3/32")
        if c["OUT_SYN_BASIS"]:
            out.append("static run sent SYN_BASIS frames")
        return out
    if workload == "wide-notable":
        out = []
        if enc != raw:
            out.append("no-table ratio is not exactly 1")
        if c["OUT_SYN_ID"]:
            out.append("no-table run sent SYN_ID frames")
        return out
    if workload == "churn-dynamic":
        return [] if c["EVICTIONS"] > 0 else ["churn run evicted nothing"]
    raise ValueError(f"no identity for workload {workload!r}")


def report_problems(text: str, workload: str, golden: str | None = None) -> list[str]:
    """Every way the report fails the gate; empty when it passes."""
    try:
        rep = parse_report(text)
        c = {name: int(rep[name]) for name in COUNTERS}
        chunks, raw, enc = int(rep["chunks"]), int(rep["raw_bytes"]), int(rep["encoded_bytes"])
        m, id_width = int(rep["m"]), int(rep["id_width"])
        padding = int(rep["alignment_padding"])
        ratio = float(rep["ratio"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable report: {exc}"]

    checks = [
        (all(v >= 0 for v in c.values()), "a counter is negative"),
        (c["RAW_IN"] == c["OUT_SYN_BASIS"] + c["OUT_SYN_ID"],
         "RAW_IN != OUT_SYN_BASIS + OUT_SYN_ID"),
        (c["RESTORED_RAW"] == c["IN_SYN_BASIS"] + c["IN_SYN_ID"] - c["DECODE_MISS"],
         "RESTORED_RAW != IN_SYN_BASIS + IN_SYN_ID - DECODE_MISS"),
        (c["RAW_IN"] == chunks, "RAW_IN != chunks"),
        (c["RESTORED_RAW"] == chunks, "RESTORED_RAW != chunks"),
        (c["DECODE_MISS"] == 0, "DECODE_MISS != 0"),
        (raw == chunks * (1 << m) // 8, "raw_bytes != chunks * chunk bytes"),
        # wire sizes: SYN_BASIS is the chunk width (+1 padding byte),
        # SYN_ID packs syndrome, msb and id into whole bytes
        (enc == c["OUT_SYN_BASIS"] * ((1 << m) // 8 + padding)
         + c["OUT_SYN_ID"] * ((m + 1 + id_width + 7) // 8),
         "encoded_bytes does not match the frame counts"),
        (raw > 0 and ratio == enc / raw, "ratio != encoded_bytes / raw_bytes"),
    ]
    problems = [msg for ok, msg in checks if not ok]
    if raw > 0:
        problems += _workload_identity(workload, c, raw, enc)
    if golden is not None and text != golden:
        problems.append("report differs from the golden report")
    return problems


def golden_report(workload: str) -> str:
    return (GOLDEN / f"{workload}.report").read_text()
