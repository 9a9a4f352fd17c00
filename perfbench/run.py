"""Benchmark for fibclifford: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload library_mix --seed 1 --seconds 45 --trace 0

Run it from a checkout: it imports the package from the checkout's ``src``
and refuses to run without it.  ``--trace 0`` runs whole rounds of the
workload for ``--seconds`` and reports the end-to-end metrics; ``--trace 1``
runs two rounds untraced and the same two rounds traced, and reports the
per-layer metrics of the traced ones.  Each round of a run has fresh inputs,
and every output is checked.  The last line of stdout is ``{"correct",
"attempted", "failed", "metrics"}``.  The line before it records the
interpreter and the host CPU steal; the full record of the run goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Ten operations beyond the 90th percentile need a hundred in a round.
MIN_OPS = 100
# Fresh interpreters timed for setup_s, after one that fills the bytecode cache.
SETUP_SPAWNS = 7
REFERENCE_SPAWNS = 5
# Rounds run untraced, then again traced, in a --trace 1 run.
TRACE_ROUNDS = 2
# The host's speed is sampled at least this often during timed work, with one
# run of the kernel for every SPEED_EVERY_NS since the last sample, at most
# SPEED_MAX_RUNS: about 5% of the time, however long the operations are.
SPEED_EVERY_NS = 20_000_000
SPEED_MAX_RUNS = 10
# After the timed rounds, every so many operations of the first round run again.
REPEAT_EVERY = 8

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def cpu_times() -> list[int] | None:
    """The aggregate line of /proc/stat: user nice system idle iowait irq softirq steal ..."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after) -> float | None:
    """Host CPU steal over the interval, as a percentage of user time."""
    if before is None or after is None or len(before) < 8:
        return None
    user, steal = after[0] - before[0], after[7] - before[7]
    return round(100.0 * steal / user, 2) if user > 0 else None


def cpu_ns() -> int:
    """CPU time (user + system) of this process and of the children it has waited for."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime) * 1e9)


def speed_kernel():
    """Fixed pure-Python work of the package's kind: rationals, big integers, calls, a dict."""
    acc, a, b, tally = Fraction(0), 0, 1, {}
    for i in range(1, 120):
        acc += Fraction(i, i + 3) * Fraction(2 * i - 1, 7)
        a, b = b, a + b
        tally[i % 17] = tally.get(i % 17, 0) + b % 1000003
    return acc, a, sorted(tally.items())


class HostSpeed:
    """The host's speed, sampled by timing ``speed_kernel`` between operations.

    The virtual CPU of a shared host runs at speeds up to 2.6x apart, in
    states that last from seconds to minutes, and loses time to the
    hypervisor (steal), so a wall time alone says as much about the host as
    about the program.  Operations are timed in CPU time, which leaves the
    stolen time out, and a CPU time divided by the kernel's CPU time around
    it is the time at reference speed: the speed at which the kernel takes
    exactly 1 ms.  The kernel imports nothing of the package, so a change to
    the package moves the operations' times and not the kernel's.
    """

    def __init__(self) -> None:
        # each sample: the CPU times of its kernel runs
        self.kernel_ns: list[list[int]] = []
        self._last = 0

    def sample(self, every_ns: int = SPEED_EVERY_NS) -> int:
        """Take a sample if ``every_ns`` have passed since the last one; the latest sample."""
        since = time.perf_counter_ns() - self._last
        if since >= every_ns:
            runs = []
            for _ in range(min(SPEED_MAX_RUNS, max(1, since // SPEED_EVERY_NS))):
                start = cpu_ns()
                speed_kernel()
                runs.append(cpu_ns() - start)
            self.kernel_ns.append(runs)
            self._last = time.perf_counter_ns()
        return len(self.kernel_ns) - 1

    def runs(self) -> list[int]:
        return [run for sample in self.kernel_ns for run in sample]

    def reference_ms(self, ns: int, at: int) -> float:
        """``ns`` of CPU time taken after sample ``at``, in ms at reference speed.

        The divisor is the median kernel time of the two samples before the
        time and the two after it, so one disturbed run does not move it.
        """
        near = [run for sample in self.kernel_ns[max(0, at - 1):at + 3] for run in sample]
        return ns / statistics.median(near)


def spawn_ns(argv: list[str], clock=time.perf_counter_ns) -> int:
    start = clock()
    subprocess.run(argv, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return clock() - start


def setup_seconds(workload: str, seed: int, speed: HostSpeed) -> float:
    """Median CPU time, at reference speed, of a fresh interpreter importing the package
    and building the first round's inputs."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
            "workloads.build(sys.argv[3], int(sys.argv[4]))")
    argv = [sys.executable, "-c", code, str(BENCH), str(SRC), workload, str(seed)]
    spawn_ns(argv)
    spawns = []
    for _ in range(SETUP_SPAWNS):
        at = speed.sample(0)
        spawns.append((spawn_ns(argv, cpu_ns), at))
    speed.sample(0)
    speed.sample(0)
    return statistics.median(speed.reference_ms(ns, at) for ns, at in spawns) / 1e3


def interpreter_ms() -> float:
    return statistics.median(
        spawn_ns([sys.executable, "-c", "pass"]) for _ in range(REFERENCE_SPAWNS)) / 1e6


def import_ms() -> float:
    """Median time to import fibclifford.cli, measured inside fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import fibclifford.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(REFERENCE_SPAWNS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        times.append(float(done.stdout))
    return 1e3 * statistics.median(times)


def same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def check_round(ops, outputs) -> tuple[list[str], list[str]]:
    """(wrong outputs, failed operations) of one round."""
    wrong, failures = [], []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failures.append(f"{op.label}: {type(out).__name__}: {out}")
            continue
        try:
            op.check(out)
        except Exception as exc:  # any error while checking means the output is wrong
            wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")
    return wrong, failures


def check_in_child(ops, outputs) -> tuple[list[str], list[str]]:
    """``check_round`` in a forked child, so the checks' memory stays out of this
    process's peak RSS."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            with os.fdopen(write_end, "w", encoding="utf-8") as f:
                json.dump(check_round(ops, outputs), f)
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as f:
        report = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not report:
        raise SystemExit("run.py: the process checking a round ended without a report")
    return json.loads(report)


class Rounds:
    """Timed rounds of one workload, each checked as soon as it ends."""

    def __init__(self, build, cli) -> None:
        self.build, self.cli = build, cli
        # (CPU ns, wall ns, host speed sample before it, completed) for every operation run
        self.times: list[tuple[int, int, int, bool]] = []
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: set[str] = set()
        self.first: list[tuple] = []

    def run_round(self, number: int, speed: HostSpeed, tracer=None) -> list[int]:
        """Round ``number`` once through; returns each operation's wall time (ns)."""
        ops = self.build(number)
        if len(ops) < MIN_OPS:
            raise SystemExit(f"run.py: a round has {len(ops)} operations, fewer than {MIN_OPS}")
        outputs, times = [], []
        clock = time.perf_counter_ns
        for i, op in enumerate(ops):
            at = speed.sample()
            if tracer is not None:
                tracer.current_op = i
            start, start_cpu = clock(), cpu_ns()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, and the run goes on
                out = exc
            cpu, wall = cpu_ns() - start_cpu, clock() - start
            times.append(wall)
            outputs.append(out)
            self.times.append((cpu, wall, at, not isinstance(out, Exception)))
        wrong, failures = check_in_child(ops, outputs)
        self.count += 1
        self.attempted += len(ops)
        self.failed += len(failures)
        self.wrong += wrong
        self.failures.update(failures)
        if not self.first:
            self.first = list(zip(ops, outputs))
        return times

    def check_repeats(self) -> None:
        """Run a share of the first round again, untimed; each must give what it gave first."""
        for op, first in self.first[::REPEAT_EVERY]:
            try:
                again = op.run()
            except Exception as exc:  # compared with the first outcome like any result
                again = exc
            if not same(again, first):
                self.wrong.append(f"{op.label}: output differs when repeated")


def timing(times_ms: list[float], completed: int) -> dict:
    """Throughput and latency percentiles of one sample of operation times."""
    return {
        "throughput_ops_s": completed * 1e3 / sum(times_ms),
        "latency_p50_ms": statistics.median(times_ms),
        "latency_p90_ms": statistics.quantiles(times_ms, n=10)[8],
    }


def end_to_end(rounds: Rounds, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Metrics over every operation of the run's rounds, in CPU time at reference speed."""
    speed = HostSpeed()
    setup = setup_seconds(workload, seed, speed)
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        rounds.run_round(rounds.count, speed)
    speed.sample(0)
    speed.sample(0)
    if rounds.cli is not None:
        peak_kb = rounds.cli.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    completed = sum(ok for *_, ok in rounds.times)
    values = timing([speed.reference_ms(cpu, at) for cpu, _, at, _ in rounds.times], completed)
    values.update(setup_s=setup, peak_rss_mb=peak_kb / 1024)
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    kernel = speed.runs()
    detail = {
        "wall_clock": timing([wall / 1e6 for _, wall, _, _ in rounds.times], completed),
        "speed_kernel_ms": {"samples": len(kernel), "median": statistics.median(kernel) / 1e6,
                            "min": min(kernel) / 1e6, "max": max(kernel) / 1e6},
    }
    return metrics, detail


def per_layer(rounds: Rounds, workload: str, cli) -> tuple[dict, dict]:
    """Per-layer metrics of TRACE_ROUNDS rounds traced, after the same rounds untraced.

    The tracing overhead is the traced rounds' time over the untraced
    rounds' time, both at reference speed.
    """
    import tracing

    speed = HostSpeed()

    def timed_rounds(tracer=None):
        start = len(rounds.times)
        walls = [rounds.run_round(number, speed, tracer) for number in range(TRACE_ROUNDS)]
        return walls, rounds.times[start:]

    _, untraced = timed_rounds()
    summary = tracing.Summary()
    if cli is not None:
        cli.spans = OUT / f"spans-{workload}.jsonl"
        cli.spans.write_text("")
        _, traced = timed_rounds()
        with open(cli.spans, encoding="utf-8") as f:
            for line in f:
                trace = json.loads(line)
                summary.add(trace, trace["wall_ns"])
        trace_file, cli.spans = cli.spans, None
    else:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        walls, traced = timed_rounds(tracer)
        trace = tracer.dump()
        summary.add(trace, sum(map(sum, walls)))
        trace_file = OUT / f"spans-{workload}.jsonl"
        write_spans(trace, trace_file)
    speed.sample(0)
    speed.sample(0)

    def total_ms(times):
        return sum(speed.reference_ms(cpu, at) for cpu, _, at, _ in times)

    overhead = total_ms(traced) / total_ms(untraced)
    metrics = summary.metrics(interpreter_ms(), import_ms(), overhead)
    return metrics, {"untraced_ms": total_ms(untraced), "traced_ms": total_ms(traced),
                     "coverage_by_entry": summary.coverage_by_entry(),
                     "spans": str(trace_file.relative_to(ROOT))}


def write_spans(trace: dict, path: Path) -> None:
    """One JSON line per span: operation, span, parent, name, start and duration in ns."""
    name, parent, op, start, end = trace["spans"]
    names = trace["names"]
    with open(path, "w", encoding="utf-8") as f:
        for i in range(len(start)):
            f.write(json.dumps([op[i], i, parent[i], names[name[i]], start[i], end[i] - start[i]]))
            f.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fibclifford" / "__init__.py").is_file():
        print(f"run.py: no package at {SRC}/fibclifford; run from a fibclifford checkout",
              file=sys.stderr)
        return 2
    # An installed package runs from compiled bytecode. Compile the checkout's
    # sources, which PYTHONDONTWRITEBYTECODE does not stop, so that no timed
    # call and no set-up interpreter compiles them; in a child, so that the
    # compiler's memory stays out of this process's peak RSS.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    sys.path.insert(0, str(SRC))
    import fibclifford
    import smoke
    import workloads

    if Path(fibclifford.__file__).resolve().parent != SRC / "fibclifford":
        print(f"run.py: imported fibclifford from {fibclifford.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    stat_before = cpu_times()
    problems = smoke.run()
    if problems:
        print("run.py: a check accepts corrupted output or rejects a genuine one:", file=sys.stderr)
        print("\n".join(problems), file=sys.stderr)
        return 3

    cli = workloads.Cli(ROOT, OUT) if args.workload == "cli_session" else None
    rounds = Rounds(lambda number: workloads.build(args.workload, args.seed, number, cli), cli)
    try:
        if args.trace:
            metrics, detail = per_layer(rounds, args.workload, cli)
        else:
            metrics, detail = end_to_end(rounds, args.workload, args.seed, args.seconds)
        rounds.check_repeats()
    finally:
        if cli is not None:
            cli.close()
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_steal_pct_of_user": steal_pct(stat_before, cpu_times()),
        "rounds": rounds.count,
    }
    result = {"correct": not rounds.wrong, "attempted": rounds.attempted, "failed": rounds.failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, detail=detail, wrong=rounds.wrong,
                  failures=sorted(rounds.failures))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in rounds.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
