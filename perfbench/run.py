#!/usr/bin/env python3
"""The nullsl2 benchmark: seeded closed-loop workloads, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ends --seed 1 --seconds 15 --trace 0

Workloads are ``construct``, ``ends``, ``spray`` and ``cli`` (see
``workloads.py`` for their op mixes).  Each run is one process and one client
in a closed loop: the next op starts when the previous one has ended, and
``cli`` runs one ``python -m nullsl2`` subprocess at a time, with
``PYTHONPATH=src`` because the console script is not installed.  BLAS and
OpenMP are pinned to one thread.

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json.  The
timed pass lasts ``--seconds`` and, if need be, goes on until 100 ops have
run, so that ten samples lie beyond the 90th percentile; it ends with a
whole round of the op mix, so every run measures the same mix.

Times are quoted at a fixed machine speed.  On a host whose cores are shared
with other tenants, speed can swing by 2x for tens of seconds (measured on a
2-vCPU Xeon VM), which no statistic within one run averages away.  So before
every op the benchmark times ``reference_work``, a fixed piece of
pure-Python work, and scales the op's wall time by ``REF_S`` over the
median reference time of the op and its neighbours (``Pass.scaled``).  A
commit cannot change the reference work, so the scaled times move only
with the program; the plain wall-time figures are printed beside them and
kept in the details file.

* ``throughput_ops_s``: ops per second of (scaled) op time; the checks and
  the reference work run between ops, outside it.
* ``latency_p50_ms``, ``latency_p90_ms``: per op, failed ops included.
* ``time_to_solution_ms``: spray, median time of one converged and checked
  ``period_solve``; the other workloads, median time of one whole round of
  their op mix with every op checked correct.
* ``ok_ratio``: ops that neither raised nor failed their check, over ops
  attempted (``fail_ratio`` = 1 - ``ok_ratio``, printed too).
* ``setup_s``: median over five fresh processes of process start + ``import
  nullsl2`` + input generation + a warm-up of the first ops.
* ``peak_rss_mb``: ``ru_maxrss`` of this process; for ``cli``, the largest
  ``ru_maxrss`` of one ``nullsl2`` subprocess of the timed pass (each is
  reaped with ``os.wait4``, so the set-up probes do not count).

``--trace 1`` runs the first cycles of the same inputs four times,
untraced and under ``tracer.Tracer`` in turn, and reports the per-layer
metrics of BENCHMARK.json from the first traced pass: counts, self times,
the tracing overhead (traced over untraced scaled op time), and subprocess
timings for ``cli``.  The two traced passes must give identical counts.

``correct`` is false when any op returned a result that failed its check,
any op raised an exception other than its ``known_failure``, or the trace
self-check fails.  An op that raises its ``known_failure`` (the one known
defect: pole order 3 off the origin, inside the contour, in ``period``)
counts in ``failed`` and lowers ``ok_ratio`` without making the run
incorrect; that defect stays in the inputs that way.

``--repeat K`` runs each op K times inside its timed span.  It is not part
of the benchmark: it makes the program K times slower in a known way, to
check that the scaled times follow a slowdown of the program as the wall
times do.  The last line
of standard output is one JSON object; per-run details (sample counts,
per-kind latencies, failures, machine info) go to
``.perfbench_out/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"     # before numpy is imported, here or in a child

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))

MIN_OPS = 100
SETUP_PROBES = 5
#: wall time of ``reference_work`` at the speed that times are quoted at
#: (about its time on a 2.1 GHz Xeon vCPU when the host is quiet)
REF_S = 0.0003
#: ops on each side of an op whose reference times set its scale
REF_WINDOW = 2
WARMUP_OPS = {"construct": 3, "ends": 3, "spray": 3, "cli": 1}
#: cycles of the pool a traced run measures (whole rounds, but for cli
#: half a round, which still has every subcommand, grid, target and family)
TRACE_CYCLES = {"construct": 6, "ends": 1, "spray": 4, "cli": 3}
SUBCOMMANDS = ("endmodel", "validate", "classify", "mesh", "solve")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("construct", "ends", "spray", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each op this many times per timed span "
                        "(to check the scaling; not a benchmark setting)")
    parser.add_argument("--probe", action="store_true",
                        help="set up, warm up and exit (times setup_s)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def prepare(workload: str, seed: int, workdir: str):
    """Import the package, build the seeded inputs and warm up.

    Returns (head, pool, cli): ``head`` runs once at the start of a pass,
    then the pass cycles through ``pool``.
    """
    import workloads

    if workload == "cli":
        os.makedirs(workdir, exist_ok=True)
        cli = workloads.CliOps(seed, ROOT, workdir)
        head, pool = cli.golden(), cli.pool()
    else:
        cli = None
        head, pool = [], workloads.IN_PROCESS[workload](seed)
    for op in pool[:WARMUP_OPS[workload]]:
        try:
            op.verify(op.run())
        except Exception:      # a failing op fails again in the timed pass
            pass
    return head, pool, cli


def probe_setup(args) -> tuple[list[float], list[float]]:
    """(scaled, wall) times of SETUP_PROBES fresh processes that only set
    up."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--probe"]
    return child_times(cmd, SETUP_PROBES, os.environ)


def child_times(cmd: list[str], runs: int, env) -> tuple[list, list]:
    """(scaled, wall) times of ``runs`` runs of the subprocess ``cmd``, each
    scaled by reference work timed just before and just after it."""
    scaled, wall = [], []
    for _ in range(runs):
        refs = [reference_seconds() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        dt = time.perf_counter() - t0
        refs += [reference_seconds() for _ in range(3)]
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd[1:3]} failed: {proc.stderr[-500:]}")
        wall.append(dt)
        scaled.append(dt * REF_S / statistics.median(refs))
    return scaled, wall


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def reference_work() -> None:
    """Fixed pure-Python work: rational arithmetic, the same kind of work as
    the library's exact layer, and dict updates.  Nothing in the program
    under test runs in it, so its time moves only with the machine."""
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(1, i)
    table: dict[int, int] = {}
    for i in range(1000):
        table[i % 97] = table.get(i % 97, 0) + i


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    """Per-op records of one pass over the inputs."""

    def __init__(self):
        self.kinds: list[str] = []
        self.groups: list[int] = []
        self.latency: list[float] = []   # wall seconds
        self.ref: list[float] = []       # reference work just before
        self.status: list[str] = []      # ok | known (failure) | wrong
        self.errors: Counter = Counter()

    def record(self, op, group: int, ref: float, dt: float, status: str,
               detail: str):
        self.kinds.append(op.kind)
        self.groups.append(group)
        self.ref.append(ref)
        self.latency.append(dt)
        self.status.append(status)
        if status != "ok":
            self.errors[f"{op.kind}: {status}: {detail}"] += 1

    def scaled(self) -> list[float]:
        """Op times at the reference speed: each wall time times REF_S over
        the median reference time of the op and REF_WINDOW ops each side."""
        out = []
        for i, dt in enumerate(self.latency):
            near = self.ref[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
            out.append(dt * REF_S / statistics.median(near))
        return out

    def failed(self) -> int:
        return sum(s != "ok" for s in self.status)

    def wrong(self) -> int:
        return sum(s == "wrong" for s in self.status)


def run_op(op, run):
    """Time the reference work, then run one op and check its result.

    Returns (reference seconds, op seconds, status, detail); an exception
    other than the op's ``known_failure`` makes the op wrong."""
    ref = reference_seconds()
    t0 = time.perf_counter()
    try:
        result = run()
    except Exception as exc:
        dt = time.perf_counter() - t0
        if isinstance(exc, op.known_failure):
            return ref, dt, "known", type(exc).__name__
        return ref, dt, "wrong", f"raised {type(exc).__name__}: " \
            f"{str(exc)[:200]}"
    dt = time.perf_counter() - t0
    try:
        op.verify(result)
    except Exception as exc:
        return ref, dt, "wrong", f"{type(exc).__name__}: {str(exc)[:200]}"
    return ref, dt, "ok", ""


def timed_pass(head, pool, round_len: int, seconds: float,
               repeat: int = 1) -> Pass:
    """The head once, then the pool round and round, in whole rounds, until
    ``seconds`` have passed and at least MIN_OPS pool ops have run.  Ops are
    grouped by the round they belong to (-1 for the head)."""
    def runner(op):
        if repeat == 1:
            return op.run
        return lambda: [op.run() for _ in range(repeat)][-1]

    rec = Pass()
    t_end = time.perf_counter() + seconds
    for op in head:
        rec.record(op, -1, *run_op(op, runner(op)))
    index = 0
    while index < MIN_OPS or index % round_len or time.perf_counter() < t_end:
        op = pool[index % len(pool)]
        rec.record(op, index // round_len, *run_op(op, runner(op)))
        index += 1
    return rec


def fixed_pass(ops, tracer=None) -> Pass:
    rec = Pass()
    for op in ops:
        run = op.run if tracer is None else \
            (lambda op=op: tracer.call("op." + op.kind, op.run))
        rec.record(op, -1, *run_op(op, run))
    return rec


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def solution_times(workload: str, rec: Pass, lat: list[float]) -> list[float]:
    """Times (from ``lat``, one per op of ``rec``) of the checked solutions
    that time_to_solution_ms is the median of.  If no solution checked out,
    all of them: the run is then incorrect, but still reports."""
    if workload == "spray":
        sols = [(dt, s) for k, dt, s in zip(rec.kinds, lat, rec.status)
                if k.startswith("spray.solve")]
    else:
        rounds: dict[int, list] = {}
        for g, dt, s in zip(rec.groups, lat, rec.status):
            if g >= 0:
                rounds.setdefault(g, []).append((dt, s))
        sols = [(sum(dt for dt, _ in r),
                 "ok" if all(s == "ok" for _, s in r) else "wrong")
                for r in rounds.values()]
    return [dt for dt, s in sols if s == "ok"] or [dt for dt, _ in sols]


def timings(workload: str, rec: Pass, lat: list[float],
            setups: list[float]) -> dict:
    """{metric: (value, samples)} for the metrics that are times, from the
    per-op times ``lat``."""
    n = len(lat)
    sol = solution_times(workload, rec, lat)
    return {
        "throughput_ops_s": (n / sum(lat), n),
        "latency_p50_ms": (statistics.median(lat) * 1e3, n),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, n),
        "time_to_solution_ms": (statistics.median(sol) * 1e3, len(sol)),
        "setup_s": (statistics.median(setups), len(setups)),
    }


def end_to_end(workload, rec: Pass, setups, cli):
    """({metric: (value, samples)} at the reference speed, the same timings
    in wall time)."""
    n = len(rec.latency)
    if cli is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = cli.peak_rss_kb
    values = timings(workload, rec, rec.scaled(), setups[0])
    values["ok_ratio"] = ((n - rec.failed()) / n, n)
    values["peak_rss_mb"] = (rss_kb / 1024.0, 1)
    wall = timings(workload, rec, rec.latency, setups[1])
    return values, {k: v for k, (v, _) in wall.items()}


def traced_run(workload, head, pool, cli, workdir, cycle_len):
    """Two untraced passes over the same ops, each followed by a traced one.

    Per-layer numbers come from the first traced pass; the two traced passes
    must give identical counts; the overhead is traced over untraced time.
    Returns (passes, value(name), counts identical?, counts)."""
    import numpy as np
    import tracer as tr
    import workloads

    ops = head + pool[:TRACE_CYCLES[workload] * cycle_len]
    fixed_pass(ops)          # warm-up: first-call costs fall on no pass
    plain, traced = [], []
    for k in range(2):
        plain.append(fixed_pass(ops))
        if cli is None:
            t = tr.Tracer().install()
            try:
                rec = fixed_pass(ops, t)
            finally:
                t.uninstall()
            traced.append((rec, t.arrays(), t.counts))
        else:
            traced.append(traced_cli_pass(ops, cli, workdir, k))
    (_, spans, counts), (_, _, counts2) = traced
    same_counts = dict(counts) == dict(counts2)
    passes = plain + [rec for rec, _, _ in traced]

    os.makedirs(OUT, exist_ok=True)
    np.savez(os.path.join(OUT, f"spans-{workload}.npz"), **spans)
    selfs = tr.self_times(spans)
    env = workloads.cli_env(ROOT)

    def child_median(code):
        return statistics.median(child_times([sys.executable] + code, 3,
                                             env)[0])

    derived = {
        "trace.overhead_ratio": sum(sum(rec.scaled()) for rec in passes[2:])
        / sum(sum(rec.scaled()) for rec in plain),
        "cli.import_s": child_median(["-c", "import nullsl2"]),
        "cli.interpreter_s": child_median(["-c", "pass"]),
        "periods.useful_residual_ratio":
            counts["periods.newton_iters"]
            / max(1, counts["periods.solver_residual.calls"]),
        "invariants.hopf.per_classify":
            counts["invariants.hopf.calls"]
            / max(1, counts["invariants.classify_end.calls"]),
    }
    for sub in SUBCOMMANDS:
        lat = [dt for rec in plain for k, dt in zip(rec.kinds, rec.scaled())
               if k == "cli." + sub]
        derived[f"cli.{sub}.p50_ms"] = statistics.median(lat) * 1e3 \
            if lat else 0.0

    def value(name):
        if name in derived:
            return derived[name]
        if name.endswith(".self_s"):
            return selfs.get(name[:-len(".self_s")], 0.0)
        return counts.get(name, 0)

    return passes, value, same_counts, dict(counts)


def traced_cli_pass(ops, cli, workdir, k):
    """Each CLI op runs under perfbench/traced_cli.py, which saves its
    spans and counts; they are merged here."""
    import numpy as np
    import tracer as tr

    parts, counts = [], Counter()
    rec = Pass()
    for i, op in enumerate(ops):
        out = os.path.join(workdir, f"trace{k}_{i}.npz")
        cli.launcher = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                        out]
        try:
            rec.record(op, -1, *run_op(op, op.run))
        finally:
            cli.launcher = None
        if os.path.exists(out):
            with np.load(out) as data:
                part = {key: data[key] for key in data.files}
            for key, n in json.loads(str(part.pop("counts"))).items():
                counts[key] = max(counts[key], n) if key in tr.MAX_COUNTS \
                    else counts[key] + n
            parts.append(part)
    return rec, tr.merge(parts), counts


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def machine_info() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "cli_invocation": f"{os.path.basename(sys.executable)} -m nullsl2 "
                          "with PYTHONPATH=src (no console script installed)",
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def emit(args, spec_metrics, values: dict, samples: dict, rec: Pass,
         correct: bool, extra: dict, wall: dict | None = None) -> None:
    """Print each metric with its unit, sample count and, for a time, its
    plain wall-time figure; write the details file; print the result."""
    wall = wall or {}
    metrics = {}
    for m in spec_metrics:
        name = m["name"]
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        n = samples.get(name)
        print(f"{name:44s} {values[name]:14.6g} {m['unit']:6s}"
              + (f"  n={n}" if n is not None else "")
              + (f"  (wall time: {wall[name]:.6g})" if name in wall else ""))
    attempted, failed = len(rec.latency), rec.failed()
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for err, count in sorted(rec.errors.items()):
        print(f"  {count:5d} x {err}")
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"],
                        "samples": samples.get(k), "wall": wall.get(k)}
                    for k, v in metrics.items()},
        "per_kind_ms": per_kind(rec),
        "errors": dict(rec.errors),
        "machine": machine_info(),
        **extra,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def per_kind(rec: Pass) -> dict:
    by: dict[str, list] = {}
    for k, dt in zip(rec.kinds, rec.latency):
        by.setdefault(k, []).append(dt * 1e3)
    return {k: {"n": len(v), "median": statistics.median(v), "max": max(v)}
            for k, v in sorted(by.items())}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nullsl2", "__init__.py")):
        sys.stderr.write("perfbench: no src/nullsl2 here; run it from the "
                         "root of a nullsl2 checkout\n")
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.probe:
            prepare(args.workload, args.seed, workdir)
            return 0
        from workloads import CYCLES, ROUND
        spec = load_spec()
        setups = [] if args.trace else probe_setup(args)
        head, pool, cli = prepare(args.workload, args.seed, workdir)
        cycle_len = len(pool) // CYCLES[args.workload]
        if args.trace:
            passes, value, same, counts = traced_run(
                args.workload, head, pool, cli, workdir, cycle_len)
            values = {m["name"]: value(m["name"]) for m in spec["per_layer"]}
            print(f"trace self-check: counts identical across two traced "
                  f"passes: {same}")
            emit(args, spec["per_layer"], values, {}, passes[2],
                 same and all(rec.wrong() == 0 for rec in passes),
                 {"counts": counts, "trace_counts_identical": same,
                  "busy_wall_s": {"untraced": [sum(r.latency)
                                               for r in passes[:2]],
                                  "traced": [sum(r.latency)
                                             for r in passes[2:]]}})
            return 0
        if cli is not None:
            cli.peak_rss_kb = 0      # the timed pass's subprocesses only
        rec = timed_pass(head, pool, cycle_len * ROUND[args.workload],
                         args.seconds, args.repeat)
        e2e, wall = end_to_end(args.workload, rec, setups, cli)
        values = {k: v for k, (v, _) in e2e.items()}
        samples = {k: n for k, (_, n) in e2e.items()}
        emit(args, spec["end_to_end"], values, samples, rec, rec.wrong() == 0,
             {"setup_probes_s": setups[0], "setup_probes_wall_s": setups[1],
              "busy_wall_s": sum(rec.latency)}, wall)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
