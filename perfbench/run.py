"""gdpipe benchmark: whole `gdpipe run` replays, and a traced per-layer run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from src/. The
workloads' trace shapes, their exact CLI commands and the map from each
per-layer metric to the end-to-end metric it should move are in
workloads.json; why each workload was chosen is in BENCHMARK.json.

--trace 0 alternates set-up and replay until --seconds is used up. Each
set-up generates and writes the workload's trace, at least once and for at
least SETUP_SECONDS; each replay is one `python -m gdpipe.cli run` process,
single-threaded. run_s, setup_s and peak_rss_mb are medians over the run.
Set-ups are spread through the run rather than done all at the start, so
that setup_s samples the same stretch of time as run_s.

The replay is an offline batch: `--gap` is simulated time, so there is no
arrival loop. Peak RSS is read per child with os.wait4, because ru_maxrss
is a per-process high-water mark; the children are started by launch.py,
which stays small, because a child's ru_maxrss starts from the memory of
the process that forked it. Every run goes through gate.py; a run that
fails it counts in `failed` and lowers pass_rate.

The host is shared, and its speed swings by up to a third, for seconds to
minutes at a time, which no median inside one run can remove. So a fixed reference (a Python
loop and a numpy gather and sort) is timed before the first set-up and
after each replay, and the wall times of each set-up and replay are scaled
by REF_NOMINAL_S over the mean of the reference times on their two sides:
run_s and setup_s are seconds at the reference speed. The reference does
not use the program, so a faster program still reads faster. The raw wall
times and the reference times are in the detail line.

--trace 1 runs the same steps once in a worker process (traced.py) with
every layer boundary wrapped, cross-checks the call counts against the
report's counters, and writes the spans to .perfbench/.

The last line of stdout is the result as JSON; the line before it stamps
the machine and build the numbers came from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SECONDS = 0.3   # set up for at least this long before each replay
TRACED_SETUP_REPS = 5        # the traced run sets up at least this many times,
TRACED_SETUP_SECONDS = 3.0   # and until the set-ups took this long together
STARTUP_REPS = 3
REF_NOMINAL_S = 0.7  # about what the reference takes on a 2-vCPU Xeon VM
# the replay is single-threaded; keep numpy's thread pools from spinning up
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = json.loads((HERE / "workloads.json").read_text())
DEFAULT_SEED = WORKLOADS["default_seed"]


class Launcher:
    """Runs child processes one at a time through launch.py (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def child(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Run one process to completion: (wall seconds, peak RSS MB, exit code)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        req = {"argv": argv, "cwd": str(ROOT), "env": env, "log": str(log)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"launch.py exited {self.proc.wait()}")
        got = json.loads(line)
        return got["seconds"], got["rss_mb"], got["code"]

    def close(self, ok: bool) -> None:
        """Let the launcher exit, or on an error stop it and its child; wait either way."""
        if ok:
            self.proc.stdin.close()
        else:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


class Reference:
    """Fixed work that does not touch gdpipe, timed to gauge the host's speed."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 2**62, size=8_000_000, dtype=np.int64)
        self.order = rng.permutation(self.table.size)
        self.gathered = np.empty_like(self.table)
        self.np = np
        self()  # the first call pays for page faults and cold caches

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        counts, x = {}, 0
        for i in range(800_000):  # interpreter work, like the replay's Python loops
            x = (x * 1103515245 + i) & 0xFFFFFFFF
            counts[x & 4095] = counts.get(x & 4095, 0) + 1
        for _ in range(2):  # memory work, like its numpy gathers and sorts
            np.take(self.table, self.order, out=self.gathered)
            self.gathered[:2_000_000].sort()
        return time.perf_counter() - t0


def scaled(seconds: float, refs: list[float]) -> float:
    """A wall time at the reference speed, from reference times taken around it."""
    return seconds * REF_NOMINAL_S / statistics.mean(refs)


def setup(traces, spec, path: Path, reps: int, seconds: float) -> list[float]:
    """Generate and write the trace at least `reps` times and for at least
    `seconds`; the seconds each took."""
    took = []
    while len(took) < reps or sum(took) < seconds:
        t0 = time.perf_counter()
        traces.write_trace(traces.gen_synthetic(spec), path)
        took.append(time.perf_counter() - t0)
    return took


def stamp(seed: int) -> dict:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = got.stdout.strip() if got.returncode == 0 else None
    src = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    import numpy
    mem_mb = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >> 20
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "mem_total_mb": mem_mb,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "src_sha256": src.hexdigest(), "seed": seed}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def trace0(name, wl, spec, traces, trace_path, seconds, golden, launch):
    """Set up and replay in turn until `seconds` is used up."""
    report = WORK / f"{name}.report"
    argv = [sys.executable] + [a.format(trace=trace_path, report=report)
                               for a in wl["command"][1:]]
    reference = Reference()
    ref = reference()
    runs = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup_wall = setup(traces, spec, trace_path, 1, SETUP_SECONDS)
        report.unlink(missing_ok=True)
        wall, rss, code = launch.child(argv, WORK / f"{name}.log")
        ref_after = reference()
        refs = [ref, ref_after]
        text = report.read_text() if report.exists() else ""
        problems = (gate.report_problems(text, name, golden) if code == 0
                    else [f"exit code {code}"])
        ratio = None if problems else float(gate.parse_report(text)["ratio"])
        runs.append({"run_s": scaled(wall, refs), "wall_s": wall,
                     "setup_s": [scaled(s, refs) for s in setup_wall],
                     "setup_wall_s": setup_wall, "ref_s": refs,
                     "peak_rss_mb": rss, "ratio": ratio, "problems": problems})
        ref = ref_after
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            break
    failed = sum(1 for r in runs if r["problems"])
    ratios = [r["ratio"] for r in runs if r["ratio"] is not None]
    metrics = {
        "run_s": metric(statistics.median(r["run_s"] for r in runs), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": metric(statistics.median(s for r in runs for s in r["setup_s"]), "s"),
        "ratio": metric(statistics.median(ratios) if ratios else 0.0, "ratio"),
        "pass_rate": metric((len(runs) - failed) / len(runs), "ratio"),
    }
    return metrics, {"runs": runs}, len(runs), failed


def trace1(name, spec, traces, trace_path, golden, seed, machine, launch):
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        setup(traces, spec, trace_path, TRACED_SETUP_REPS, TRACED_SETUP_SECONDS)
    finally:
        restore()

    startup = [launch.child([sys.executable, "-c", "import gdpipe.cli"], WORK / f"{name}.log")
               for _ in range(STARTUP_REPS)]
    out = WORK / f"{name}.traced.json"
    out.unlink(missing_ok=True)
    _, _, code = launch.child([sys.executable, str(HERE / "traced.py"), "--workload", name,
                               "--trace-file", str(trace_path), "--out", str(out)],
                              WORK / f"{name}.traced.log")
    if code != 0 or not out.exists():
        log = (WORK / f"{name}.traced.log").read_text(errors="replace")
        raise SystemExit(f"traced worker exited {code}:\n{log}")
    got = json.loads(out.read_text())
    replay, counters = spans.Tracer.from_dump(got), got["counters"]
    calls, secs, self_s = replay.calls, replay.seconds, replay.self_seconds

    problems = list(got["problems"]) + gate.report_problems(got["report"], name, golden)
    cross = [("dictionary.lookup_id", "OUT_SYN_ID"), ("dictionary.peek_victim", "EVICTIONS")]
    if calls("pipeline.scalar_fallback"):
        # only the scalar nodes call the gdcore codec, once per chunk each way
        cross += [("gdcore.gd_encode", "RAW_IN"), ("gdcore.gd_decode", "RESTORED_RAW")]
    for layer, counter in cross:
        if calls(layer) != counters[counter]:
            problems.append(f"{layer}.calls={calls(layer)} but {counter}={counters[counter]}")

    raw_in, digests = counters["RAW_IN"], counters["DIGESTS"]
    metrics = {
        "traces.read_trace.s": metric(secs("traces.read_trace"), "s"),
        "traces.gen_synthetic.s": metric(tracer.median_seconds("traces.gen_synthetic"), "s"),
        "traces.write_trace.s": metric(tracer.median_seconds("traces.write_trace"), "s"),
        "pipeline.compute_bases.s": metric(secs("pipeline.compute_bases"), "s"),
        "pipeline.run_pipeline.s": metric(secs("pipeline.run_pipeline"), "s"),
        "pipeline.run_pipeline.self_s": metric(self_s("pipeline.run_pipeline"), "s"),
        "pipeline.scalar_fallback.calls": metric(calls("pipeline.scalar_fallback"), "count"),
        "pipeline.control.poll.calls": metric(calls("pipeline.control.poll"), "count"),
        "pipeline.control.poll.self_s": metric(self_s("pipeline.control.poll"), "s"),
        "pipeline.control.submit.calls": metric(calls("pipeline.control.submit"), "count"),
        "pipeline.control.submit.s": metric(secs("pipeline.control.submit"), "s"),
        "pipeline.install_share": metric(
            counters["INSTALLS"] / digests if digests else 0.0, "ratio"),
    }
    for op in ("lookup_id", "lookup_basis", "learn", "peek_victim"):
        metrics[f"dictionary.{op}.calls"] = metric(calls(f"dictionary.{op}"), "count")
        metrics[f"dictionary.{op}.s"] = metric(secs(f"dictionary.{op}"), "s")
    metrics["dictionary.learn.p50_us"] = metric(got["learn_p50_us"], "us")
    metrics["dictionary.learn.p99_us"] = metric(got["learn_p99_us"], "us")
    metrics["dictionary.hit_share"] = metric(
        counters["OUT_SYN_ID"] / raw_in if raw_in else 0.0, "ratio")
    for op in ("gd_encode", "gd_decode"):
        metrics[f"gdcore.{op}.calls"] = metric(calls(f"gdcore.{op}"), "count")
        metrics[f"gdcore.{op}.s"] = metric(secs(f"gdcore.{op}"), "s")
    metrics["cli.verify.s"] = metric(secs("cli.verify"), "s")
    metrics["cli.startup_s"] = metric(statistics.median(s for s, _, _ in startup), "s")
    for stage in ("read", "bases", "replay"):
        metrics[f"rss.{stage}_mb"] = metric(got["rss_mb"][stage], "MB")
    metrics["trace_overhead_s"] = metric(
        secs("pipeline.run_pipeline") - got["untraced_run_pipeline_s"], "s")

    spans_file = WORK / f"spans-{name}-{seed}.json"
    spans_file.write_text(json.dumps({
        "stamp": machine, "setup": tracer.dump(), "replay": replay.dump(),
        "problems": problems}))
    out.unlink()
    detail = {"problems": problems, "spans_file": str(spans_file.relative_to(ROOT)),
              "startup_s": [s for s, _, _ in startup]}
    return metrics, detail, 1, 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="gdpipe benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS["workloads"]))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not (SRC / "gdpipe" / "cli.py").is_file():
        print(f"error: no gdpipe sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(ONE_THREAD)  # before numpy loads, here and in every child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so the finally below runs
    sys.path.insert(0, str(SRC))
    from gdpipe import traces

    name = opts.workload
    wl = WORKLOADS["workloads"][name]
    spec = traces.TraceSpec(seed=opts.seed, **wl["trace"])
    spec.validate()
    golden = gate.golden_report(name) if opts.seed == DEFAULT_SEED else None
    machine = stamp(opts.seed)

    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"{name}.gdtrace"
    launch = Launcher()
    ok = False
    try:
        if opts.trace:
            metrics, detail, attempted, failed = trace1(
                name, spec, traces, trace_path, golden, opts.seed, machine, launch)
        else:
            metrics, detail, attempted, failed = trace0(
                name, wl, spec, traces, trace_path, opts.seconds, golden, launch)
        ok = True
    finally:
        launch.close(ok)
        trace_path.unlink(missing_ok=True)

    print("detail: " + json.dumps(detail))
    print("stamp: " + json.dumps(machine))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
