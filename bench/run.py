#!/usr/bin/env python3
"""Benchmark for fourierineq: end-to-end timings with output checks, and a
traced run with a per-layer breakdown.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of constants, exponent-grid, signals, cli (see workloads.py),
or ``all`` to run the four in turn.  One caller runs a closed loop of
passes over the workload's fixed list of operations in a single process,
held with its child processes to one CPU and with BLAS/OpenMP threads
pinned to 1, until the next pass would end after S seconds; at least one
pass always runs.  Every output is checked against oracle.py and counted
as failed when wrong.

--trace 0 measures with tracing off.  --trace 1 alternates untraced and
traced passes (at least one of each) and reports per-layer self times and
counts from the traced ones, plus trace_overhead, the ratio of their
median pass times.

Human-readable lines come first: the run environment and every metric
with its unit and sample count.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; with
tracing off its metrics are pass_rel, setup_s and peak_rss_mb, the ones
every workload has and none can read 0.  pass_s, fail_frac, max_rel_err
and the timings of single workloads (joint_type_s_per_signal, bracket_s,
cli_cold_s) are printed and written out only.  ``correct`` is false when
an operation fails that is not a recorded known defect; known defects
count in failed.
The environment, every metric and the failures are also written to
bench/out/, and a traced run writes its spans there as CSV.

pass_rel is the median pass time over the median time of a fixed
pure-Python reference loop.  During untraced passes an interval timer runs
the loop every REF_EVERY_S seconds, and once as a pass starts, so its
samples cover each pass evenly, long operations included.  The loop's own
time is taken out of the time of the operation it interrupted.  A cli
operation runs in a child process, which would share the machine with the
loop, so there the timer's signal is held back until the child has exited.
On a shared host the speed of the machine drifts with its other
tenants' load, and the loop slows in step with the program: on a 2-vCPU
virtual machine, in 20-second windows over four minutes, the median time
of the same 704 exponent-grid calls spread by 28% (distance between
quartiles over the median) and its ratio to the loop by 5%.  A change to
the program moves pass_s and pass_rel alike; the loop does not call the
program.  Passes are also kept short where the workload allows
(exponent-grid, signals), so that a run holds many of them and their
median rides out bursts of load.
"""

from __future__ import annotations

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import contextlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from oracle import Verdict
from tracing import Tracer, layer_metric_names

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
NAMES = ("constants", "exponent-grid", "signals", "cli")
SETUP_PROBES = 4     # fresh-process set-ups beside the run's own
IMPORT_PROBES = 3    # fresh-process imports of fourierineq.cli (traced run)

SETUP_PROBE = """
import sys, time
t = time.perf_counter()
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/bench"]
import workloads
workloads.build(name, seed, root)
print(time.perf_counter() - t)
"""

IMPORT_PROBE = """
import time
t = time.perf_counter()
import fourierineq.cli
print(time.perf_counter() - t)
"""

# (name, unit): the metrics the JSON line carries with tracing off
END_TO_END = (("pass_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

REF_LOOP = 200_000   # iterations of the reference loop, about 20 ms
REF_EVERY_S = 0.5    # period of the timer that runs the loop in a pass


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that measures the speed of
    the host, not of the program."""
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t


class RefSampler:
    """Runs the reference loop from an interval timer while active; keeps
    the loop's times and the total time spent in the timer's handler."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0

    def _tick(self, *_):
        t = time.perf_counter()
        self.samples.append(reference_loop())
        self.busy += time.perf_counter() - t

    def start(self):
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


@contextlib.contextmanager
def alarm_blocked(block: bool):
    """Hold back the reference timer's signal while the body runs."""
    if block:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        if block:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


@dataclass
class Pass:
    traced: bool
    op_times: list[float] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.op_times)


def run_pass(wl, tracer=None, extra_modules=()) -> Pass:
    """One pass over wl.ops; with a tracer, the package is wrapped for the
    pass and the per-layer totals are kept, and without one the reference
    loop is sampled through the pass."""
    res = Pass(traced=tracer is not None)
    sampler = RefSampler()  # started for untraced passes only
    if tracer is not None:
        before = dict(tracer.counts)
        first_op = tracer.op_id + 1
        tracer.install(extra_modules)
        if wl.cli is not None:
            wl.cli.traced, wl.cli.layers = True, {}
    else:
        sampler.start()
    # a cli operation's child process would run beside the loop and share
    # the machine with it, so the timer waits until the child has exited
    shield = tracer is None and wl.cli is not None
    try:
        for op in wl.ops:
            if tracer is not None:
                tracer.op_id += 1
            t, busy = time.perf_counter(), sampler.busy
            try:
                with alarm_blocked(shield):
                    out = op.call()
            except Exception as exc:  # a crash is a counted failure
                res.op_times.append(time.perf_counter() - t
                                    - (sampler.busy - busy))
                res.verdicts.append(Verdict(False, "crash: " + "".join(
                    traceback.format_exception_only(exc)).strip()))
                continue
            res.op_times.append(time.perf_counter() - t
                                - (sampler.busy - busy))
            try:
                res.verdicts.append(op.check(out))
            except Exception as exc:  # malformed output
                res.verdicts.append(Verdict(False, "unreadable output: " +
                                            repr(exc)))
    finally:
        if tracer is None:
            sampler.stop()
            res.ref_times = sampler.samples
        else:
            tracer.uninstall()
            if wl.cli is not None:
                wl.cli.traced = False
    if tracer is not None:
        res.layers = tracer.layer_totals(range(first_op, tracer.op_id + 1))
        for k, v in tracer.counts.items():
            res.layers[k] = v - before.get(k, 0)
        if wl.cli is not None:
            res.layers = {**res.layers, **wl.cli.layers}
    return res


def measure(wl, seconds: float, tracer=None, extra_modules=()
            ) -> tuple[list[Pass], float]:
    """Passes until the next one would end after `seconds`; with a tracer
    they alternate untraced/traced, at least one of each.  Also returns the
    peak RSS in MB after the first pass (a fixed amount of work)."""
    passes: list[Pass] = []
    rss_mb = 0.0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(wl, tracer if traced else None, extra_modules))
        if len(passes) == 1:
            who = (resource.RUSAGE_CHILDREN if wl.cli is not None
                   else resource.RUSAGE_SELF)
            rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        if tracer is not None and len(passes) < 2:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + max(p.seconds for p in passes[-2:]) > seconds:
            return passes, rss_mb


def probe(code: str, *args: str) -> float:
    """Run a timing snippet in a fresh interpreter; it prints seconds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git;
    'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": THREADS, "seed": seed, "git_commit": git_commit(),
            "machine": platform.machine()}


def _median_of_group(passes: list[Pass], ops, group: str):
    times = [t for p in passes if not p.traced
             for op, t in zip(ops, p.op_times) if op.group == group]
    return (statistics.median(times), len(times)) if times else None


def end_to_end(wl, passes: list[Pass], setups: list[float], rss_mb: float
               ) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, sample note)."""
    plain = [p.seconds for p in passes if not p.traced]
    refs = [r for p in passes if not p.traced for r in p.ref_times]
    verdicts = [v for p in passes for v in p.verdicts]
    errs = [v.rel_err for v in verdicts if v.rel_err is not None]
    failed = sum(not v.ok for v in verdicts)
    out = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups"),
        "pass_s": (statistics.median(plain), "s",
                   f"median of {len(plain)} passes of {len(wl.ops)} ops"),
        "pass_rel": (statistics.median(plain) / statistics.median(refs),
                     "ratio", f"pass_s over the median of {len(refs)} "
                     "reference loops"),
        "fail_frac": (failed / len(verdicts), "1",
                      f"{failed} failed of {len(verdicts)} attempted"),
        "max_rel_err": (max(errs) if errs else float("nan"), "1",
                        f"over {len(errs)} checked finite constants"),
        "peak_rss_mb": (rss_mb, "MB", "after set-up and one pass"),
    }
    for metric, group, per in (("joint_type_s_per_signal", "joint_type",
                                "signal"),
                               ("bracket_s", "bracket", "call"),
                               ("cli_cold_s", "cli", "invocation")):
        got = _median_of_group(passes, wl.ops, group)
        if got is not None:
            out[metric] = (got[0], "s", f"median of {got[1]} per {per}")
    return out


def per_layer(passes: list[Pass], import_s: float) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {name: statistics.median(p.layers.get(name, 0) for p in traced)
           for name in layer_metric_names()}
    out["cli.import_s"] = import_s
    out["trace_overhead"] = (statistics.median(p.seconds for p in traced)
                             / statistics.median(p.seconds for p in plain))
    return out


def layer_unit(name: str) -> str:
    if name.endswith(("_calls", "_evals")):
        return "count"
    return "ratio" if name == "trace_overhead" else "s"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # one CPU for the run and its child processes, so that the reference
    # loop and a cli child share the same part of the host
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import workloads
    wl = workloads.build(name, seed, ROOT)
    setup_s = time.perf_counter() - t

    tracer = Tracer() if trace else None
    passes, rss_mb = measure(wl, seconds, tracer, [workloads])

    env = environment(seed)
    ops = wl.ops
    failures = [(op.name, v.detail, op.defect)
                for p in passes for op, v in zip(ops, p.verdicts) if not v.ok]
    attempted = sum(len(p.verdicts) for p in passes)
    setups = [setup_s]
    if not trace:
        setups += [probe(SETUP_PROBE, ROOT, name, str(seed))
                   for _ in range(SETUP_PROBES)]
    e2e = end_to_end(wl, passes, setups, rss_mb)
    if trace:
        import_s = statistics.median(probe(IMPORT_PROBE)
                                     for _ in range(IMPORT_PROBES))
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in per_layer(passes, import_s).items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": unit}
                   for k, unit in END_TO_END}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    if tracer is not None:
        tracer.write_spans(stem + "-spans.csv")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": name, "env": env, "seconds": seconds,
                   "setup_samples": setups,
                   "pass_samples": [p.seconds for p in passes],
                   "end_to_end": {k: {"value": v, "unit": u, "n": n}
                                  for k, (v, u, n) in e2e.items()},
                   "metrics": metrics,
                   "failures": [{"op": o, "detail": d, "known_defect": k}
                                for o, d, k in failures]}, fh, indent=1)

    print(f"# fourierineq benchmark: workload={name} seed={seed} "
          f"trace={int(trace)} seconds={seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    if not trace:
        for k, (v, unit, note) in e2e.items():
            print(f"{k:<24} {v:>14.6g} {unit:<3} ({note})")
    else:
        for k, m in metrics.items():
            print(f"{k:<32} {m['value']:>14.6g} {m['unit']}")
    if tracer is not None and tracer.missing:
        print("untraced, missing from the package: "
              + ", ".join(sorted(tracer.missing)))
    for o, d, k in dict.fromkeys(failures):
        print(f"FAILED {o}: {d}" + (f" [known defect: {k}]" if k else ""))
    unexpected = [f for f in failures if not f[2]]
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fourierineq", "__init__.py")):
        print(f"error: no fourierineq sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    code = 0
    for name in NAMES:
        code |= subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
