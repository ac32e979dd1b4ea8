"""kbundle benchmark: time to verdict of `kbundle.cli.execute_job` on one
workload, with every answer checked against `bench/expected/`.

    python3 bench/run.py --workload scan_linalg --seed 1 --seconds 28 --trace 0

One closed-loop client runs one job at a time in this process.  A run draws
whole passes (a fixed mix per pass, see workloads.py) until it holds at least
100 jobs, then runs them in sweeps for about `--seconds` (timed_loop).
Every job time is scaled by the calibration kernel of calibrate.py, sampled
between jobs, to seconds at a fixed nominal machine speed, and each job's
time to verdict is the median of its runs.  With `--trace 1` every job runs
once without and once with the per-layer spans of tracing.py, and the
per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import calibrate  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402
from answers import decision_fields  # noqa: E402

SETUP_REPEATS = 9
MAX_SECONDS = 150.0     # a run ends well inside the 180 s a run may take
CAL_EVERY = 0.1         # seconds of jobs per calibration sample
CAL_BURST = 5           # calibration samples after one long job, at most
CAL_WINDOW = 1.0        # seconds around a job whose samples scale its time
REPEAT_S = 0.05         # a sweep repeats a cheap job for about this long
MAX_REPEATS = 5

# Runs in a fresh interpreter: import kbundle and build the job dicts of the
# run's first passes.  Prints the elapsed seconds and the median time of the
# calibration kernel around them, sampled in the same process.
_SETUP_CODE = """
import sys, time, json, random, statistics
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import calibrate, workloads
kernel = [calibrate.sample()[1] for _ in range(4)]
started = time.perf_counter()
import kbundle.cli
with open(sys.argv[5], encoding="utf-8") as fh:
    pool = json.load(fh)["jobs"]
rng = random.Random(int(sys.argv[4]))
jobs = [workloads.build_job(sys.argv[3], job_id)
        for job_id in workloads.first_passes(sys.argv[3], rng, pool)]
elapsed = time.perf_counter() - started
kernel += [calibrate.sample()[1] for _ in range(4)]
print(elapsed, statistics.median(kernel))
"""


def job_digest(job: dict) -> str:
    """Identity of a generated job, without its cap, to catch generator drift."""
    body = {k: v for k, v in job.items() if k != "task"}
    options = {k: v for k, v in job["task"]["options"].items()
               if k != "timeout_seconds"}
    body["task"] = {"name": job["task"]["name"], "options": options}
    text = json.dumps(body, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def measure_setup(workload: str, seed: int) -> float:
    """Import plus job building, timed in a fresh interpreter and scaled to
    the nominal speed by the kernel samples taken there."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CODE, str(BENCH), str(SRC),
         workload, str(seed), str(expected_path(workload))],
        capture_output=True, text=True, timeout=120, check=True)
    elapsed, kernel = map(float, proc.stdout.strip().splitlines()[-1].split())
    return elapsed * calibrate.NOMINAL_S / kernel


class Runner:
    """Runs jobs, times them, and checks every answer."""

    def __init__(self, expected: dict):
        from kbundle.cli import execute_job
        from kbundle.modgb import ResourceCapError
        from kbundle.stability import InternalCheckError
        self.execute_job = execute_job
        self.undecided_errors = (ResourceCapError, InternalCheckError)
        self.expected = expected["jobs"]
        self.cap_bound = set(expected["cap_bound"])
        self.tracer = None
        self.times: list = []
        self.attempted = 0
        self.decided = 0
        self.wrong: list = []
        self.undecided: list = []

    def run(self, job_id: str, job: dict):
        if self.tracer is not None:
            self.tracer.start_job()
        outcome = None
        gc.collect()  # one job's garbage is not collected on the next one's time
        started = time.perf_counter()
        try:
            report, _, code = self.execute_job(job)
        except self.undecided_errors as exc:
            outcome = type(exc).__name__
        except Exception as exc:  # a job that must not fail did: a wrong answer
            outcome = exc
        elapsed = time.perf_counter() - started
        self.times.append(elapsed)
        self.attempted += 1
        if isinstance(outcome, str):
            self.undecided.append(f"{job_id}: {outcome}")
            if self.tracer is not None:
                self.tracer.discard_job()
            return started, elapsed, False
        if outcome is not None:
            self.wrong.append(f"{job_id}: raised {outcome!r}")
            return started, elapsed, False
        entry = self.expected.get(job_id)
        if entry is None or entry["digest"] != job_digest(job):
            self.wrong.append(f"{job_id}: no frozen answer for this job")
            return started, elapsed, False
        fields = json.loads(json.dumps(
            decision_fields(job["task"]["name"], report["results"])))
        if code != entry.get("exit", 0) or fields != entry["fields"]:
            self.wrong.append(f"{job_id}: exit {code}, got {fields}, "
                              f"expected {entry['fields']}")
            return started, elapsed, False
        self.decided += 1
        return started, elapsed, True


def expected_path(workload: str) -> Path:
    return BENCH / "expected" / f"{workload}.json"


def load_expected(workload: str) -> dict:
    with open(expected_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


class Clock:
    """Samples of the calibration kernel between jobs, and what a time
    measured at some moment would have been at the nominal speed."""

    def __init__(self):
        self.at: list = []
        self.kernel_s: list = []

    def tick(self, force: bool = False):
        """Samples the kernel about once per CAL_EVERY seconds since the
        last sample, at most CAL_BURST times in a row.  An untimed call goes
        first, so that no sample pays for the caches the last job left cold."""
        gap = time.perf_counter() - self.at[-1] if self.at else CAL_EVERY
        count = max(min(CAL_BURST, int(gap / CAL_EVERY)), 1 if force else 0)
        if count:
            calibrate.kernel()
        for _ in range(count):
            at, seconds = calibrate.sample()
            self.at.append(at)
            self.kernel_s.append(seconds)

    def nominal(self, start: float, end: float, seconds: float) -> float:
        """`seconds`, measured from `start` to `end`, scaled by the median
        kernel time of the samples within CAL_WINDOW of that stretch."""
        lo = bisect.bisect_left(self.at, start - CAL_WINDOW)
        hi = bisect.bisect_right(self.at, end + CAL_WINDOW)
        return seconds * calibrate.NOMINAL_S / statistics.median(self.kernel_s[lo:hi])


def timed_loop(runner: Runner, workload: str, ids: list, rng, seconds: float,
               setup) -> dict:
    """Times every job of `ids` in sweeps and measures set-up between them.

    First the cheapest job of each group runs once, untimed.  A sweep then
    runs every job not known to hit the cap, in a fresh order: once, or, if
    it took less than REPEAT_S when expected/ was frozen, as often as fits
    into REPEAT_S (at most MAX_REPEATS times), since the shortest times
    scatter most.  Repeats are shuffled in with the other jobs rather than
    run back to back, so that no run finds the caches warm with its own
    data.  Sweeps go on while the next one is expected to end within
    `seconds`; at least one runs.  The time left then goes to one more run
    of as many of the cheapest jobs as fit.  The cap-bound jobs run once each and the
    SETUP_REPEATS set-up measurements are taken between sweeps, spread over
    the run.  The calibration kernel runs between jobs (Clock.tick).

    Every decided run of a job is scaled to the nominal speed
    (Clock.nominal), and the job's time to verdict is the median of its runs.
    An undecided job counts with the wall time at which its cap stopped it,
    which does not depend on the machine's speed.  Peak memory is read after
    the first sweep, before any cap-bound job: what they hold when the cap
    stops them depends on machine speed.  Objects that exist before the
    first sweep are frozen out of the garbage collector, so the collection
    before each job costs next to nothing.
    """
    started = time.perf_counter()
    deadline = started + min(seconds, MAX_SECONDS)
    clock = Clock()
    jobs = [workloads.build_job(workload, job_id) for job_id in ids]

    def estimate(k):
        return runner.expected[ids[k]]["seed_seconds"]

    timed = [k for k, job_id in enumerate(ids) if job_id not in runner.cap_bound]
    capped = [k for k, job_id in enumerate(ids) if job_id in runner.cap_bound]
    # The warm-up pays the one-time costs (first calls, lazy imports) that
    # would otherwise land on whichever timed run comes first.
    cheapest: dict = {}
    for k in timed:
        group = workloads.group(workload, ids[k])
        if group not in cheapest or estimate(k) < estimate(cheapest[group]):
            cheapest[group] = k
    warm_up = sorted(cheapest.values())
    # How often a sweep runs each job, from its time when expected/ was
    # frozen, so every run does the same work.
    reps = [max(1, min(MAX_REPEATS, int(REPEAT_S / estimate(k)))) for k in range(len(ids))]
    runs: list = [[] for _ in ids]
    decided = [True] * len(ids)
    setups: list = []

    def run(k):
        begin, elapsed, ok = runner.run(ids[k], jobs[k])
        runs[k].append((begin, elapsed))
        decided[k] = decided[k] and ok
        clock.tick()

    def sweep() -> float:
        begin = time.perf_counter()
        order = [k for k in timed for _ in range(reps[k])]
        rng.shuffle(order)
        for k in order:
            run(k)
        return time.perf_counter() - begin

    def time_setup() -> float:
        begin = time.perf_counter()
        setups.append(setup())
        return time.perf_counter() - begin

    def catch_up(fraction: float):
        """Runs cap-bound jobs and set-ups until `fraction` of each is done."""
        while capped and len(capped) > (1 - fraction) * cap_total:
            run(capped.pop())
        while len(setups) < fraction * SETUP_REPEATS:
            time_setup()

    for k in warm_up:
        runner.run(ids[k], jobs[k])
    gc.collect()
    gc.freeze()
    clock.tick(force=True)
    sweep_s = sweep()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_cost = time_setup()
    cap_total = len(capped)
    sweeps = 1
    while timed:
        left = (len(capped) * workloads.CAPS[workload]
                + (SETUP_REPEATS - len(setups)) * setup_cost)
        if time.perf_counter() + sweep_s + left > deadline:
            break
        sweep_s = sweep()
        sweeps += 1
        catch_up((time.perf_counter() - started) / (deadline - started))
    catch_up(1.0)
    # The time a whole sweep no longer fits into goes to one more run of as
    # many of the cheapest jobs as fit.
    room = deadline - time.perf_counter()
    extra = []
    for k in sorted(timed, key=lambda k: statistics.median(e for _, e in runs[k])):
        room -= statistics.median(e for _, e in runs[k])
        if room < 0:
            break
        extra.append(k)
    rng.shuffle(extra)
    for k in extra:
        run(k)
    clock.tick(force=True)

    times = []
    for k in range(len(ids)):
        if decided[k]:
            times.append(statistics.median(
                clock.nominal(begin, begin + elapsed, elapsed) for begin, elapsed in runs[k]))
        else:
            times.append(statistics.median(elapsed for _, elapsed in runs[k]))
    return {"times": times, "decided": sum(decided), "peak_mb": peak_mb,
            "sweeps": sweeps,
            "setup_s": statistics.median(setups),
            "speed": calibrate.NOMINAL_S / statistics.median(clock.kernel_s)}


def quantile(values: list, q: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta(q (n+1), (1-q) (n+1)) density, integrated
    over each one's share of [0, 1] by the midpoint rule (the weights are
    then rescaled to sum to 1).

    The single order statistic at rank q n jumps wherever the job costs have
    a gap there; one job's noise then moves the quantile by the whole gap.
    The weighted mean moves by that job's share of it.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    xs = [(i + (j + 0.5) / steps) / n for i in range(n) for j in range(steps)]
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in xs]
    top = max(logs)
    weights = [sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps])
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def end_to_end(loop: dict) -> dict:
    """A known cap-bound job counts with the time its cap stopped it, so a
    change that decides more jobs never raises a quantile."""
    times = loop["times"]
    return {
        "setup_s": (loop["setup_s"], "s"),
        "verdict_s.p50": (quantile(times, 0.5), "s"),
        "verdict_s.p90": (quantile(times, 0.9), "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "decided_ratio": (loop["decided"] / len(times), "ratio"),
        "peak_rss_mb": (loop["peak_mb"], "MB"),
    }


def per_layer(runner: Runner, workload: str, ids) -> dict:
    """Runs each job once untraced and once traced; per-layer metrics of the
    traced runs.

    Which of the two goes first alternates from job to job, so warm-up
    favours neither side of `trace.overhead_ratio`.
    """
    import tracing
    from kbundle.modgb import ResourceCapError
    tracer = tracing.Tracer(ResourceCapError)
    untraced = traced = 0.0
    for n, job_id in enumerate(ids):
        for with_trace in ((False, True) if n % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                runner.tracer = tracer
            try:
                runner.run(job_id, workloads.build_job(workload, job_id))
            finally:
                tracer.remove()
                runner.tracer = None
            if with_trace:
                traced += runner.times[-1]
            else:
                untraced += runner.times[-1]
    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced / untraced
    return {name: (values[name], tracing.unit(name))
            for name in tracing.per_layer_metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: about a tenth of the jobs")
    args = parser.parse_args(argv)

    if not (SRC / "kbundle" / "__init__.py").is_file():
        print(f"kbundle sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kbundle
    if Path(kbundle.__file__).resolve().parent != SRC / "kbundle":
        print(f"imported kbundle from {kbundle.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    runner = Runner(load_expected(args.workload))
    rng = random.Random(args.seed)
    if args.size == "smoke":
        ids = workloads.pass_ids(args.workload, rng, runner.expected, scale=0.1)
    else:
        ids = workloads.first_passes(args.workload, rng, runner.expected)
    if args.trace:
        metrics = per_layer(runner, args.workload, ids)
        attempted, failed = runner.attempted, runner.attempted - runner.decided
    else:
        loop = timed_loop(runner, args.workload, ids, rng, args.seconds,
                          lambda: measure_setup(args.workload, args.seed))
        metrics = end_to_end(loop)
        attempted, failed = len(ids), len(ids) - loop["decided"]
        print(f"{len(ids)} jobs, {loop['sweeps']} sweeps, machine at "
              f"{loop['speed']:.2f} of nominal speed", file=sys.stderr)

    for line in sorted(set(runner.wrong)):
        print(f"WRONG {line}", file=sys.stderr)
    for line in sorted(set(runner.undecided)):
        known = line.split(":")[0] in runner.cap_bound
        print(f"undecided {line}" + ("" if known else " (NOT a known cap-bound job)"),
              file=sys.stderr)
    result = {
        "correct": not runner.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not runner.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
