"""karlin-rsm benchmark: runs the CLI on one workload and prints its metrics.

    python3 perfbench/run.py --workload {urn,limit,cli-short} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it runs the CLI from ``src/``
with ``python -m karlin_rsm.cli``, one child process at a time, and checks
every report.  With ``--trace 0`` it repeats the workload's calls in rounds
for about S seconds and reports the end-to-end metrics.  With ``--trace 1``
it runs each call untraced and traced in pairs of rounds (see tracer.py)
and reports the per-layer metrics.  A summary table goes to stderr; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
PYTHON = sys.executable

SETUP_SAMPLES = 3  # fresh interpreters importing the CLI, for setup_s
MIN_ROUNDS = 2  # untraced rounds per run, however long they take
RUN_LIMIT_S = 170.0  # a call still running this long after the start is killed

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cli_p50_s": "s",
    "verdict_s": "s",
    "sample_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Result:
    call: workloads.Call
    wall: float
    returncode: int
    rss_kb: int
    digest: str
    outcome: checks.Outcome


class Bench:
    """Runs calls one child process at a time and keeps every result."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.results = []

    def process(self, cmd: list, stdout: Path, stderr: Path):
        """Run one child; returns (wall seconds, exit code, peak RSS in KiB)."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.perf_counter(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def call(self, call: workloads.Call, prefix: list, reference: str | None = None) -> Result:
        """Run ``prefix + call.argv``; a report differing from ``reference`` fails."""
        stdout = self.work / f"{call.name}.stdout"
        stderr = self.work / f"{call.name}.stderr"
        report_path = Path(call.out) if call.out else stdout
        report_path.unlink(missing_ok=True)
        wall, code, rss = self.process([*prefix, *call.argv], stdout, stderr)
        report = report_path.read_bytes() if report_path.exists() else b""
        outcome = checks.check(call.kind, call.expect, code, report)
        digest = checks.digest(report)
        if outcome.ok and reference is not None and digest != reference:
            outcome = checks.Outcome(False, "report differs from the same call at the same seed")
        if not outcome.ok:
            tail = stderr.read_text(errors="replace").strip().splitlines()[-3:]
            print(f"FAILED {call.name}: {outcome.reason} {tail}", file=sys.stderr)
        result = Result(call, wall, code, rss, digest, outcome)
        self.results.append(result)
        return result

    def run_round(self, calls, prefix_of, references: dict) -> list:
        """Run each call once; its report must match the first one of the same name."""
        done = [self.call(c, prefix_of(c), references.get(c.name)) for c in calls]
        for r in done:
            references.setdefault(r.call.name, r.digest)
        return done

    @property
    def failed(self) -> int:
        return sum(not r.outcome.ok for r in self.results)


def repeat(step, seconds: float, minimum: int) -> list:
    """Call ``step`` at least ``minimum`` times, then until another call would end after ``seconds``."""
    start = time.perf_counter()
    done = []
    while True:
        done.append(step())
        elapsed = time.perf_counter() - start
        if len(done) >= minimum and elapsed * (len(done) + 1) / len(done) > seconds:
            return done


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _round_sum(rounds, kinds) -> float:
    return _median([sum(r.wall for r in rnd if r.call.kind in kinds) for rnd in rounds])


def _per_second(rounds, field: str) -> float:
    work = [sum(getattr(r.call, field) for r in rnd) for rnd in rounds]
    wall = [sum(r.wall for r in rnd if getattr(r.call, field)) for rnd in rounds]
    return _median([w / t for w, t in zip(work, wall) if t])


def run_untraced(bench: Bench, wl: workloads.Workload, seconds: float):
    setup = []
    for _ in range(SETUP_SAMPLES):
        wall, code, _ = bench.process([PYTHON, "-c", "import karlin_rsm.cli"],
                                      bench.work / "setup.stdout", bench.work / "setup.stderr")
        if code != 0:
            raise SystemExit(f"error: importing karlin_rsm.cli failed with exit code {code}")
        setup.append(wall)

    cli = [PYTHON, "-m", "karlin_rsm.cli"]
    references = {}
    rounds = repeat(lambda: bench.run_round(wl.calls, lambda c: cli, references), seconds, MIN_ROUNDS)
    if wl.threads_check:
        first = next(c for c in wl.calls if c.kind == "verify")
        bench.call(first.variant("threads1", threads=1), cli, references[first.name])

    walls = [r.wall for rnd in rounds for r in rnd]
    metrics = {
        "setup_s": _median(setup),
        "wall_s": _median([sum(r.wall for r in rnd) for rnd in rounds]),
        "cli_p50_s": _median(walls),
        "verdict_s": _round_sum(rounds, ("verify",)),
        "sample_s": _round_sum(rounds, ("simulate", "limit-sample")),
        "peak_rss_mb": max(r.rss_kb for r in bench.results) / 1024.0,
    }
    table = [(f"call {c.name}", _median([r.wall for rnd in rounds for r in rnd
                                          if r.call.name == c.name]), "s")
             for c in wl.calls]
    table += [("urn_draws_per_s", _per_second(rounds, "urn_draws"), "1/s"),
              ("limit_replicas_per_s", _per_second(rounds, "limit_replicas"), "1/s"),
              ("verify checks per round", sum(r.outcome.checks for r in rounds[0]), "count"),
              ("verify checks failed per round",
               sum(r.outcome.checks_failed for r in rounds[0]), "count"),
              ("cli calls timed", len(walls), "count"),
              ("rounds", len(rounds), "count")]
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, table


def run_traced(bench: Bench, wl: workloads.Workload, seconds: float):
    launch = str(HERE / "launch.py")

    def files(c):
        paths = bench.work / f"{c.name}.timing.json", bench.work / f"{c.name}.spans.json"
        for path in paths:
            path.unlink(missing_ok=True)
        return [str(path) for path in paths]

    def plain(c):
        timing_path, _ = files(c)
        return [PYTHON, launch, timing_path, "--"]

    def traced(c):
        timing_path, spans_path = files(c)
        return [PYTHON, launch, timing_path, "--spans", spans_path, "--workload", wl.name, "--"]

    def timing(c) -> dict:
        path = bench.work / f"{c.name}.timing.json"
        return json.loads(path.read_text()) if path.exists() else {"import_s": 0.0, "main_s": 0.0}

    traced_calls = [c.variant("traced") for c in wl.calls]
    overhead, startup, main_s = [], [], {}
    references = {}

    def pair() -> dict:
        plain_round = bench.run_round(wl.calls, plain, references)
        for r in plain_round:
            main_s.setdefault(r.call.name, timing(r.call)["main_s"])
            startup.append(r.wall - timing(r.call)["main_s"])
        # a traced report must be byte-identical to the untraced one
        traced_round = [bench.call(c, traced(c), references[base.name])
                        for c, base in zip(traced_calls, wl.calls)]
        overhead.append(sum(timing(r.call)["main_s"] for r in traced_round)
                        - sum(timing(r.call)["main_s"] for r in plain_round))
        spans = []
        for c in traced_calls:
            path = bench.work / f"{c.name}.spans.json"
            spans.append(json.loads(path.read_text())["spans"] if path.exists() else [])
        return layers.span_metrics(spans)

    per_pair = repeat(pair, seconds, 1)
    metrics = {name: statistics.fmean(p[name] for p in per_pair) for name in per_pair[0]}
    first = next(c for c in wl.calls if c.kind == "verify")
    one = first.variant("threads1", threads=1)
    bench.call(one, plain(one), references[first.name])
    t1, t2 = timing(one)["main_s"], main_s[first.name]
    metrics["verify.scaling_eff"] = t1 / (2.0 * t2) if t2 else 0.0

    stderr = bench.work / "importtime.stderr"
    _, code, _ = bench.process([PYTHON, "-X", "importtime", "-c", "import karlin_rsm.cli"],
                               bench.work / "importtime.stdout", stderr)
    if code != 0:
        raise SystemExit(f"error: importing karlin_rsm.cli failed with exit code {code}")
    metrics.update(layers.import_times(stderr.read_text()))
    metrics["cli.startup_s"] = _median(startup)
    metrics["trace.overhead_s"] = statistics.fmean(overhead)
    table = [("pairs of rounds", len(per_pair), "count")]
    return {name: (metrics[name], unit) for name, (unit, _) in layers.METRICS.items()}, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # on SIGTERM, unwind so that the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "karlin_rsm" / "cli.py").is_file():
        print(f"error: no karlin_rsm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        threads = min(2, os.cpu_count() or 1)
        wl = workloads.build(args.workload, args.seed, work, threads)
        for path, text in wl.inputs.items():
            Path(path).write_text(text)
        bench = Bench(work, started)
        run = run_traced if args.trace else run_untraced
        metrics, table = run(bench, wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(bench.results)
    machine = (f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, "
               f"numpy {metadata.version('numpy')}, scipy {metadata.version('scipy')}")
    print(f"workload {wl.name} (seed {args.seed}, trace {args.trace}; {machine})", file=sys.stderr)
    rows = table + [(name, value, unit) for name, (value, unit) in metrics.items()]
    rows.append(("ops_failed_frac", bench.failed / attempted, "ratio"))
    for name, value, unit in rows:
        print(f"  {name:34s} {value:14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
