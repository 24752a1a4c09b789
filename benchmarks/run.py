#!/usr/bin/env python3
"""natbdd benchmark: seeded workloads, exact checks, end-to-end metrics.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 benchmarks/run.py --workload dense_tables --seed 1 --seconds 20
    python3 benchmarks/run.py --workload all --seed 1
    python3 benchmarks/run.py --workload rank_stream --trace 1

Workloads: dense_tables, sparse_functions, rank_stream, cli_pipes (see
``workloads.py``); ``all`` runs each one in a fresh process.  The report
has one ``workload metric value unit`` line per metric; its last line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Untraced (``--trace 0``), each run repeats whole rounds of its workload,
at least two and at most ten, until ``--seconds`` have passed, and reports
ops_per_s, op_p50_ms, op_tail_ms, peak_rss_mb and setup_s (plus fail_share,
the tail's percentile and sample count, and raw wall-clock figures in the
text lines).  Op times, and so ops_per_s, are rescaled to a fixed machine
speed measured by a reference computation between ops (see "reference
speed" below).  setup_s is the median wall time over fresh processes to
import the library, generate round 0 and run the warm-up ops.  Traced
(``--trace 1``), it runs the first round untraced and then traced, reports
per-layer calls, self time and work counts, the tracing overhead and a
baseline size sweep, and writes every span to ``.bench_out/spans_<workload>.tsv.gz`` (the oracle
cross-check's to ``spans_<workload>_oracle.tsv.gz``).

``failed`` (and ``fail_share``) counts every op that raised, exited
nonzero or returned a wrong value, and failed ops are kept out of the
latency figures.  ``correct`` is false when an op returned a wrong value,
when ``ev`` disagreed with the pointwise oracle on the cross-check sample,
or when an op failed in any way but the workload's known defect (the
decimal nv=14 pipes of cli_pipes, see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_BEYOND = 10
# The largest size class of dense_tables and sparse_functions has one op per
# round, so a run of at most ten rounds never puts eleven of them above the
# tail cut, and the tail stays in the class below however fast the program
# or the machine is.  Two rounds give that class more than ten ops.
MIN_ROUNDS, MAX_ROUNDS = 2, TAIL_BEYOND
SETUP_REPEATS = 11
OUT_DIR = Path(".bench_out")

# ------------------------------------------------------------------ stats


def tail(sorted_ms: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile that has >= 10 samples beyond it.

    Returns (value, percentile, sample count).  With ``n`` samples that is
    the (n-10)-th smallest, at percentile 100*(n-10)/n; with ten or fewer
    no percentile qualifies and the maximum is returned at percentile 100.
    """
    n = len(sorted_ms)
    if n <= TAIL_BEYOND:
        return sorted_ms[-1], 100.0, n
    k = n - TAIL_BEYOND
    return sorted_ms[k - 1], 100.0 * k / n, n


# ------------------------------------------------------- reference speed
#
# The shared 2-vCPU host this benchmark was tuned on changes speed by up to
# 2x for tens of seconds at a time, so the median wall time of one 20 s run
# differs from the next by 20-40% with the code unchanged.  Between
# consecutive ops the benchmark therefore times a fixed reference of its own
# that does the ops' kind of work without calling the library, and reports
# op times rescaled to the speed at which the reference takes its nominal
# time, as if the machine ran at that speed throughout (still in ms, and
# ops per s).  A change to the library cannot change a reference; raw wall
# times are printed beside the rescaled ones.
#
# * In process, the reference splits a table (``reference``), and each op
#   is rescaled by the mean of the references just before and after it:
#   ``ms * nominal_ms / ref_ms``.  On that host this cut the spread
#   (IQR / median) of the median op time over 20 s windows from 0.26-0.32
#   to 0.02-0.04.
# * cli_pipes spends its time starting two interpreters at once in child
#   processes, which the in-process reference did not follow (over ten
#   seeds the spread of its median was 0.13 rescaled against 0.08 raw in a
#   calm period, and 0.41 in a noisy one).  Its reference is two bare
#   ``python -c pass`` started together, too noisy to rescale single ops
#   by, so the whole run is rescaled by the median of its references.  Over
#   two sets of ten seeds the spread of the median was 0.11 and 0.12 (raw
#   0.11 and 0.15), and 0.10 over five seeds in a noisy period (raw 0.12).


class Reference(NamedTuple):
    time_ms: Callable[[], float]
    nominal_ms: float  # its typical time on the tuning host
    per_op: bool       # rescale each op by the references around it, or the run by their median


REF_BITS = 1 << 10
REF_TABLE = random.Random("natbdd-bench:reference").getrandbits(REF_BITS)


def _split(unique: dict, tt: int, width: int) -> Any:
    if width == 1:
        return tt
    half = width >> 1
    key = (_split(unique, tt >> half, half), _split(unique, tt & ((1 << half) - 1), half))
    return unique.setdefault(key, key)


def reference() -> None:
    """Split a 1024-bit table into halves down to single bits and hash-cons
    the pairs: shifts and masks of wide ints, tuples and a dict.  It makes no
    reference cycle, so it leaves nothing for the collector to free later,
    inside the next op."""
    _split({}, REF_TABLE, REF_BITS)


def reference_ms() -> float:
    """Wall time of one ``reference()``, with no collection inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def process_reference_ms(ctx: workloads.Context) -> float:
    """Wall time of two bare interpreters started together, as in a pipe."""
    t0 = time.perf_counter()
    procs = [subprocess.Popen([ctx.python, "-c", "pass"], env=ctx.env, stdin=subprocess.DEVNULL)
             for _ in range(2)]
    try:
        codes = [p.wait(timeout=ctx.timeout_s) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    if any(codes):
        raise RuntimeError(f"reference interpreter exited {codes}")
    return (time.perf_counter() - t0) * 1e3


def reference_for(workload: workloads.Workload, ctx: workloads.Context) -> Reference:
    if workload.in_process:
        return Reference(reference_ms, 0.5, per_op=True)
    return Reference(functools.partial(process_reference_ms, ctx), 115.0, per_op=False)


class Sample(NamedTuple):
    # a tuple of strings and floats, which the collector stops tracking, so a
    # run's growing sample list does not lengthen collection pauses in ops
    cls: str
    ms: float      # wall time
    status: str    # "ok", "error" (raised / exited nonzero) or "wrong"
    label: str
    note: str = ""
    # set by measure(): mean time of the references around the op, and the
    # op's time at the reference's nominal speed
    ref_ms: float = math.nan
    norm_ms: float = math.nan


def is_correct(workload: workloads.Workload, samples: list[Sample], mismatches: int) -> bool:
    """No oracle mismatch, no wrong value, no failure but the known defect."""

    def known_defect(s: Sample) -> bool:
        return (workload.known_defect is not None and s.status == "error"
                and s.cls == workload.known_defect[0] and workload.known_defect[1] in s.note)

    return mismatches == 0 and all(s.status == "ok" or known_defect(s) for s in samples)


def timed(workload: workloads.Workload, case: workloads.Case, op: Any) -> Sample:
    t0 = time.perf_counter()
    try:
        result = op()
    except Exception as exc:  # any failure of the program counts, and the run goes on
        ms = (time.perf_counter() - t0) * 1e3
        return Sample(case.cls, ms, "error", case.label, f"{type(exc).__name__}: {exc}"[:200])
    ms = (time.perf_counter() - t0) * 1e3
    status = "ok" if workload.check(case, result) else "wrong"
    return Sample(case.cls, ms, status, case.label)


# ------------------------------------------------------------------ set-up


# Run by ``python -c`` in a fresh interpreter.  The clock starts before any
# import, so the library's imports and theirs are paid in full; the only
# other module loaded is ``workloads``, which generates the inputs.
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import importlib, os, sys
bench, src, name, seed = sys.argv[1:]
sys.path[:0] = [bench, src]
import workloads
nb = importlib.import_module("natbdd")
importlib.import_module("natbdd.cli")
ctx = workloads.Context(python=sys.executable, env=dict(os.environ))
workloads.warm_up(workloads.WORKLOADS[name], nb, ctx, int(seed))
print(time.perf_counter() - t0)
"""


def cold_setup_s(workload: workloads.Workload, src: Path, ctx: workloads.Context, seed: int,
                 repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of set-up (import, round 0, warm-up) over fresh
    processes.  Not rescaled: a fresh process's time did not follow the
    reference's speed on the tuning host (rescaling doubled its spread)."""
    argv = [ctx.python, "-c", SETUP_PROBE, str(Path(__file__).resolve().parent), str(src),
            workload.name, str(seed)]
    return statistics.median(
        float(subprocess.run(argv, env=ctx.env, capture_output=True, text=True, check=True,
                             timeout=ctx.timeout_s * 4).stdout)
        for _ in range(repeats))


def import_library(src: Path) -> Any:
    """Import natbdd (and its CLI module) from ``src``."""
    nb = importlib.import_module("natbdd")
    importlib.import_module("natbdd.cli")
    if Path(nb.__file__).resolve().parent != (src / "natbdd").resolve():
        raise SystemExit(f"natbdd imported from {nb.__file__}, not from {src}")
    return nb


# ------------------------------------------------------------- untraced run


def measure(workload: workloads.Workload, nb: Any, ctx: workloads.Context, seed: int,
            seconds: float, ref: Reference) -> tuple[list[Sample], int, float]:
    """Whole rounds, closed loop, until ``seconds`` have passed (within
    MIN_ROUNDS..MAX_ROUNDS rounds), with the reference timed between ops."""
    samples: list[Sample] = []
    t0 = time.perf_counter()
    r = 0
    before = ref.time_ms()
    while r < MIN_ROUNDS or (r < MAX_ROUNDS and time.perf_counter() - t0 < seconds):
        gc.collect()  # every round starts from the same collector state
        for case, op in workload.ops(nb, ctx, workload.make_round(seed, r)):
            s = timed(workload, case, op)
            after = ref.time_ms()
            samples.append(s._replace(ref_ms=(before + after) / 2))
            before = after
        r += 1
    elapsed = time.perf_counter() - t0
    run_ref_ms = statistics.median(s.ref_ms for s in samples)
    samples = [s._replace(norm_ms=s.ms * ref.nominal_ms / (s.ref_ms if ref.per_op else run_ref_ms))
               for s in samples]
    return samples, r, elapsed


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def busy_seconds(samples: list[Sample], ms: Callable[[Sample], float] = lambda s: s.norm_ms) -> float:
    """Time spent in ops, counted as ops x median op time per size class.

    Every round has the same class counts, so this is the run's busy time
    with each op's cost taken at its class median: one stalled op (a
    collection pause, a slow phase of a shared machine) moves it little.
    """
    by_class: dict[str, list[float]] = {}
    for s in samples:
        by_class.setdefault(s.cls, []).append(ms(s))
    return sum(len(v) * statistics.median(v) for v in by_class.values()) / 1e3


def end_to_end(samples: list[Sample], setup_s: float, rss: float) -> tuple[dict[str, float], dict[str, float]]:
    """Gated metrics (op times rescaled to the reference speed) and extra
    report lines."""
    ok = [s for s in samples if s.status == "ok"]
    if not ok:
        raise SystemExit("benchmark: no operation succeeded")
    metrics = {
        "ops_per_s": len(ok) / busy_seconds(samples),
        "op_p50_ms": statistics.median(s.norm_ms for s in ok),
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }
    extra = {
        "fail_share": sum(s.status != "ok" for s in samples) / len(samples),
        "wall_ops_per_s": len(ok) / busy_seconds(samples, lambda s: s.ms),
        "wall_op_p50_ms": statistics.median(s.ms for s in ok),
        "ref_ms_p50": statistics.median(s.ref_ms for s in samples),
    }
    metrics["op_tail_ms"], extra["op_tail_pct"], extra["op_samples"] = tail(sorted(s.norm_ms for s in ok))
    return metrics, extra


# --------------------------------------------------------------- traced run


def run_cli_in_process(nb: Any, kind: str, first: list[str], second: list[str]) -> tuple[str, list[float]]:
    """The same two CLI steps through ``cli.run`` in this process."""
    times = []

    def step(argv: list[str], stdin: str) -> str:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        code = nb.cli.run(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
        times.append((time.perf_counter() - t0) * 1e3)
        if code:
            lines = err.getvalue().strip().splitlines()
            raise workloads.PipeFailed(f"exit {code}: {lines[-1] if lines else ''}")
        return out.getvalue()

    mid = step(first, "")
    out = step(second, mid) if kind == "pipe" else step(second + mid.split(), "")
    return out, times


def cli_process_metrics(ctx: workloads.Context, nb: Any, cases: list[workloads.Case]) -> dict[str, float]:
    """cli.import_ms and cli.process_overhead_ms from real processes."""
    probe = ("import time; t = time.perf_counter(); import natbdd.cli; "
             "print((time.perf_counter() - t) * 1e3)")
    imports = [float(subprocess.run([ctx.python, "-c", probe], env=ctx.env, capture_output=True,
                                    text=True, check=True, timeout=ctx.timeout_s).stdout)
               for _ in range(5)]
    cmd = [ctx.python, "-m", "natbdd"]

    def wall_ms(argv: list[str], stdin: str) -> tuple[float, str]:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + argv, input=stdin, env=ctx.env, capture_output=True,
                              text=True, timeout=ctx.timeout_s)
        return (time.perf_counter() - t0) * 1e3, proc.stdout

    overheads = []
    for case in cases:
        kind, first, second = case.inputs
        try:
            _, (ms1, ms2) = run_cli_in_process(nb, kind, first, second)
        except workloads.PipeFailed:
            continue
        wall1, mid = wall_ms(first, "")
        if kind == "pipe":
            wall2, _ = wall_ms(second, mid)
        else:
            wall2, _ = wall_ms(second + mid.split(), "")
        overheads += [wall1 - ms1, wall2 - ms2]
    return {"cli.import_ms": statistics.median(imports),
            "cli.process_overhead_ms": statistics.median(overheads)}


def traced(modules: list[Any], fn: Any) -> tuple[Any, tracing.Tracer]:
    """``fn()`` with every library function in ``modules`` traced."""
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        return fn(), tracer
    finally:
        tracer.uninstall()


def traced_run(workload: workloads.Workload, nb: Any, ctx: workloads.Context,
               seed: int) -> tuple[list[Sample], int, dict[str, float], dict[str, tracing.Tracer], float]:
    """Round 0 untraced, then traced; per-layer metrics from the second pass.

    The oracle cross-check runs under a tracer of its own, so its calls
    into bdd and truthtab stay out of the workload's rows and only fill the
    ``oracle.truth_table_of`` metrics.
    """
    cases = workload.make_round(seed, 0)
    if workload.name == "cli_pipes":
        # the CLI layers are only visible in-process: both passes call cli.run
        def ops(nb: Any, ctx: workloads.Context, cases: list[workloads.Case]) -> Any:
            for case in cases:
                yield case, lambda case=case: run_cli_in_process(nb, *case.inputs)[0]
    else:
        ops = workload.ops

    timed(workload, *next(iter(ops(nb, ctx, cases))))  # warm the in-process path
    plain = [timed(workload, case, op) for case, op in ops(nb, ctx, cases)]
    modules = [nb] + [importlib.import_module(f"natbdd.{layer}") for layer in tracing.LAYERS]
    samples, tracer = traced(modules, lambda: [timed(workload, case, op) for case, op in ops(nb, ctx, cases)])
    sample = workloads.oracle_sample(seed, workload.name)
    mismatches, oracle = traced(modules, lambda: workloads.oracle_crosscheck(nb, sample))

    metrics = tracing.layer_metrics(tracer.per_function(), tracer.counts)
    oracle_metrics = tracing.layer_metrics(oracle.per_function(), oracle.counts)
    metrics.update({k: v for k, v in oracle_metrics.items() if k.startswith("oracle.truth_table_of.")})
    plain_s = sum(s.ms for s in plain) / 1e3
    metrics["trace.overhead_share"] = sum(s.ms for s in samples) / 1e3 / plain_s - 1
    if workload.name == "cli_pipes":
        metrics.update(cli_process_metrics(ctx, nb, cases))
    else:
        metrics.update({"cli.import_ms": 0.0, "cli.process_overhead_ms": 0.0})
    gc.collect()
    metrics.update(tracing.sweep(nb, workloads.round_rng(seed, "sweep", 0)))
    return plain + samples, mismatches, metrics, {"": tracer, "_oracle": oracle}, plain_s


# ------------------------------------------------------------------ report


def load_spec() -> dict:
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    src = Path.cwd() / "src"
    if not (src / "natbdd" / "__init__.py").is_file():
        print(f"benchmark: no natbdd sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=str(src))
    ctx = workloads.Context(python=sys.executable, env=env)
    workload = workloads.WORKLOADS[name]
    spec = load_spec()

    nb = import_library(src)
    workloads.warm_up(workload, nb, ctx, seed)
    if trace:
        samples, mismatches, metrics, tracers, busy = traced_run(workload, nb, ctx, seed)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        rounds = 1
    else:
        samples, rounds, busy = measure(workload, nb, ctx, seed, seconds, reference_for(workload, ctx))
        # read before the set-up probes run, as they are child processes too
        # (cli_pipes' reference interpreters are, but import nothing, so
        # every CLI process is larger)
        rss = peak_rss_mib(name == "cli_pipes")
        mismatches = workloads.oracle_crosscheck(nb, workloads.oracle_sample(seed, name))
        metrics, extra = end_to_end(samples, cold_setup_s(workload, src, ctx, seed), rss)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    failed = [s for s in samples if s.status != "ok"]
    print(f"# workload {name} seed {seed} seconds {seconds:g} trace {int(trace)} "
          f"rounds {rounds} measured_s {busy:.3f} oracle_mismatches {mismatches}")
    for s in failed[:5]:
        print(f"# failed [{s.status}] {s.cls} {s.label} {s.note}")
    for metric, unit in units.items():
        note = ""
        if metric in tracing.ROADMAP_FIGURES:
            note = f"  (ROADMAP seed figure {tracing.ROADMAP_FIGURES[metric]})"
        print(f"{name} {metric} {metrics[metric]:.6g} {unit}{note}")
    if trace:
        for fn, row in sorted(tracers[""].per_function().items()):
            print(f"# trace {fn} calls {row['calls']} self_ms {row['self_ms']:.3f}")
        for suffix, tracer in tracers.items():
            path = OUT_DIR / f"spans_{name}{suffix}.tsv.gz"
            tracer.write_spans(path)
            print(f"# spans {len(tracer.fid)} written to {path}")
    else:
        print(f"{name} fail_share {extra['fail_share']:.6g} 1")
        print(f"{name} wall_ops_per_s {extra['wall_ops_per_s']:.6g} 1/s")
        print(f"{name} wall_op_p50_ms {extra['wall_op_p50_ms']:.6g} ms")
        print(f"{name} ref_ms_p50 {extra['ref_ms_p50']:.6g} ms")
        print(f"{name} op_tail_pct {extra['op_tail_pct']:.6g} %")
        print(f"{name} op_samples {extra['op_samples']} count")
        if name == "cli_pipes":
            share = sum(s.cls == "nv=14 decimal" for s in samples) / len(samples)
            print(f"{name} decimal_nv14_share {share:.6g} 1")

    result = {
        "correct": is_correct(workload, samples, mismatches),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload of BENCHMARK.json in a fresh process; one combined
    JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in [w["name"] for w in load_spec()["workloads"]]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
