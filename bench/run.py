#!/usr/bin/env python3
"""kickedtop benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout; the package is imported from src/ and
nothing is installed:

    python3 bench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

BENCHMARK.json lists the workloads (built in workloads.py) and the metrics.
One process calls kickedtop.cli.main(argv) back to back, each call waiting
for the last; one operation is one CLI invocation and a pass is one run
through the workload's operation list.  After set-up and one untimed
reference pass, passes repeat until --seconds have elapsed and at least
MIN_PASSES have run.

Pacing.  The reference host, a shared 2-core Intel Xeon virtual machine,
changes speed by 20-60% for seconds to minutes at a time, so raw medians of
whole runs spread 15-45% between runs.  Each workload therefore has a
yardstick, a fixed computation in the benchmark's own reference code (never
in the package) with the same mix of work, timed before and after every
operation.  An operation's paced time is its measured time scaled by
yardstick_ref_s / (the mean of the two yardstick times): the time it would
take on the reference host in its fast phase.  Set-up is mostly the import
of numpy and scipy, file and unmarshal work that the host slows differently,
so its yardstick is a cold start of its own (setup_probe.py --yardstick:
numpy and scipy imports in a fresh interpreter) run before and after every
probe.  Every timing below is paced and is a median:

  setup_s      median over SETUP_PROBES fresh interpreters of the package
               import plus one small warm-up call
  wall_s       time of one pass: the sum over its operations of each one's
               median over passes, so one disturbed operation or yardstick
               tick in a pass does not move it
  kicks_per_s  kicks requested per pass / wall_s
  op_p50_ms    median latency of one operation, over all samples
  op_tail_ms   highest percentile of TAIL_LADDER that keeps ten or more
               samples above it in every run (at least len(ops) * MIN_PASSES)
  peak_rss_mb  peak resident memory of this process after the timed passes

The summary lines give sample counts, the unpaced figures and
ops_failed_frac.  An operation fails on a nonzero exit code, an exception, an
output that differs from its reference pass or from an earlier run of the
same sources and inputs, or a failed output check (oracle.py, run after the
timed passes).

With --trace 1 untraced and traced passes alternate.  Traced passes wrap the
package's layer functions from outside (tracer.py); the run reports the
per-layer metrics of BENCHMARK.json as medians over traced passes (times
paced like the pass), and trace.overhead_frac, the traced wall_s over the
untraced one, minus 1.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A per-layer metric whose traced function no longer
exists has the value 0 and "absent": true.  Scratch files go to .bench_work/
in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS/OpenMP thread, set before numpy loads here and inherited by every
# child: within any machine's nproc, and the steadiest baseline on a shared host.
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 11
SETUP_YARDSTICK_REF_S = 0.30  # setup_probe.py --yardstick on the reference host, fast phase
MIN_PASSES = 6  # binds on figures, whose passes take seconds: its op_tail_ms needs the samples
MIN_TRACED_PASSES = 2
TAIL_LADDER = (99, 95, 90, 75, 50)


class OpResult(NamedTuple):
    seconds: float  # measured
    paced: float  # scaled to the reference host's fast phase
    digest: str | None  # sha256 of the output file; None when the operation failed
    error: str


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(min_samples: int) -> int:
    """Highest percentile of TAIL_LADDER that leaves ten samples above it."""
    return next((p for p in TAIL_LADDER if min_samples * (100 - p) >= 1000), 50)


def percentile(values, pct: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kickedtop").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_info() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    with contextlib.suppress(Exception):  # show_config's layout differs across numpy builds
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Pacer:
    """Times the workload's yardstick and converts measured times to paced ones."""

    def __init__(self, workload):
        self.yardstick = workload.yardstick
        self.ref_s = workload.yardstick_ref_s
        self.tick()  # warm
        self.last = self.tick()

    def tick(self) -> float:
        start = time.perf_counter()
        self.yardstick()
        return time.perf_counter() - start

    def pace(self, seconds: float) -> float:
        """Scale a time measured since the previous pace() (or construction)."""
        before, self.last = self.last, self.tick()
        return seconds * self.ref_s / (0.5 * (before + self.last))


def measure_setup(warmup: list[str], workdir: Path) -> list[tuple[float, float]]:
    """Cold starts in fresh interpreters, package import plus one warm-up call,
    as (measured, paced) pairs; each is paced by the yardstick cold starts
    just before and after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def cold_start(args: list[str]) -> float:
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("setup_probe.py")), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
        return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    yardsticks = [cold_start(["--yardstick"])]
    samples = []
    for _ in range(SETUP_PROBES):
        seconds = cold_start([str(workdir / "setup.out"), *warmup])
        yardsticks.append(cold_start(["--yardstick"]))
        samples.append((seconds, seconds * SETUP_YARDSTICK_REF_S / (0.5 * sum(yardsticks[-2:]))))
    return samples


def run_op(cli, argv: list[str], out: Path) -> tuple[float, str | None, str]:
    """Time one CLI invocation; returns (seconds, output digest or None, error)."""
    sink = io.StringIO()
    error = ""
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects flags by exiting
            code = exc.code
        except Exception:  # one broken operation must not stop the benchmark
            code, error = -1, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, None, error or f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    try:
        return elapsed, hashlib.sha256(out.read_bytes()).hexdigest(), ""
    except OSError as exc:
        return elapsed, None, f"no output: {exc}"


def pass_time(passes: list[list[OpResult]]) -> float:
    """Sum over operations of each one's median paced time across passes."""
    return sum(_median(times) for times in zip(*([r.paced for r in results] for results in passes)))


def run_pass(cli, ops, pacer: Pacer) -> list[OpResult]:
    gc.collect()
    pacer.pace(0.0)
    results = []
    for op in ops:
        seconds, digest, error = run_op(cli, op.argv, op.out)
        results.append(OpResult(seconds, pacer.pace(seconds), digest, error))
    return results


def inputs_digest(ops, rundir: Path) -> str:
    """Digest of the generated arguments and input files, run directory elided."""
    h = hashlib.sha256()
    for op in ops:
        h.update("\0".join(op.argv).replace(str(rundir), "").encode() + b"\n")
    for path in sorted(rundir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cross_run_mismatches(key: str, digests: list) -> set[int]:
    """Operations whose output differs from an earlier run with the same key
    (sources and inputs); the first run records its digests for later ones."""
    store = WORK / "digests.json"
    try:
        known = json.loads(store.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    if key in known:
        return {i for i, (a, b) in enumerate(zip(known[key], digests)) if a != b}
    known[key] = digests
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known), encoding="utf-8")
    os.replace(tmp, store)
    return set()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (SRC / "kickedtop" / "__init__.py").is_file():
        return _fail(f"no kickedtop sources under {SRC}; run from a repository checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if opts.trace else "end_to_end"]}

    rundir = WORK / f"{opts.workload}-seed{opts.seed}-{os.getpid()}"
    try:
        workload = workloads.build(opts.workload, opts.seed, rundir)
        report = measure(workload, opts, list(wanted), rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    missing = [name for name in wanted if name not in report["metrics"]]
    if missing:
        return _fail(f"BENCHMARK.json names metrics this runner does not compute: {missing}")
    for line in report["lines"]:
        print(line)
    metrics = {}
    for name, unit in wanted.items():
        value = report["metrics"][name]
        print(f"metric {name} = {'absent' if value is None else repr(value)} {unit}")
        metrics[name] = ({"value": value, "unit": unit} if value is not None
                         else {"value": 0.0, "unit": unit, "absent": True})
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def measure(workload, opts, names: list[str], rundir: Path) -> dict:
    ops = workload.ops
    run_key = f"{workload.name}/{opts.seed}/{source_digest()}/{inputs_digest(ops, rundir)}"
    info = machine_info()
    pacer = Pacer(workload)
    setup = measure_setup(workload.warmup, rundir)

    sys.path.insert(0, str(SRC))
    from kickedtop import cli

    run_op(cli, [*workload.warmup, "--out", str(rundir / "warmup.out")], rundir / "warmup.out")
    reference = run_pass(cli, ops, pacer)  # untimed: lets lazy set-up finish, fixes the digests

    tracer = tracing.Tracer() if opts.trace else None
    passes: list[tuple[bool, list[OpResult]]] = []
    layer_passes: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            try:
                results = run_pass(cli, ops, pacer)
            finally:
                tracer.uninstall()
            scale = sum(r.paced for r in results) / sum(r.seconds for r in results)
            layer_passes.append({k: v * scale if k.endswith("_s") else v
                                 for k, v in tracer.pass_totals().items()})
        else:
            results = run_pass(cli, ops, pacer)
        passes.append((traced, results))
        plain_count = len(passes) - len(layer_passes)
        enough = (plain_count >= MIN_PASSES if tracer is None
                  else min(plain_count, len(layer_passes)) >= MIN_TRACED_PASSES)
        if enough and time.perf_counter() - loop_start >= opts.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness, outside the timed region: exit codes, determinism, oracle checks.
    problems: list[str] = []
    ref_digests = [r.digest for r in reference]
    bad_ops: set[int] = set()
    for i, (op, ref) in enumerate(zip(ops, reference)):
        found = [ref.error] if ref.digest is None else oracle.check(op.command, op.check, op.out)
        if found:
            bad_ops.add(i)
            problems += [f"op {i} ({op.command}): {p}" for p in found]
    for i in sorted(cross_run_mismatches(run_key, ref_digests)):
        bad_ops.add(i)
        problems.append(f"op {i} ({ops[i].command}): output differs from an earlier run of the same sources and inputs")
    attempted = failed = 0
    for _, results in passes:
        for i, r in enumerate(results):
            attempted += 1
            if i in bad_ops or r.digest != ref_digests[i]:
                failed += 1
                if i not in bad_ops:
                    problems.append(f"op {i} ({ops[i].command}): {r.error or 'output differs from its reference pass'}")

    plain = [results for traced, results in passes if not traced]
    wall = pass_time(plain)
    samples = [r.paced for results in plain for r in results]
    tail_pct = tail_percentile(len(ops) * (MIN_TRACED_PASSES if tracer else MIN_PASSES))
    kicks = workload.kicks_per_pass
    metrics = {
        "setup_s": _median([paced for _, paced in setup]),
        "wall_s": wall,
        "kicks_per_s": kicks / wall,
        "op_p50_ms": 1000.0 * _median(samples),
        "op_tail_ms": 1000.0 * percentile(samples, tail_pct),
        "peak_rss_mb": peak_rss_mb,
    }
    raw_walls = [sum(r.seconds for r in results) for results in plain]
    out_digest = hashlib.sha256("".join(d or "-" for d in ref_digests).encode()).hexdigest()
    lines = [
        f"workload {workload.name} seed {opts.seed} trace {opts.trace}: {len(passes)} passes of "
        f"{len(ops)} operations, {kicks} kicks per pass",
        f"machine {json.dumps(info, sort_keys=True)}",
        f"samples: setup_s {len(setup)} cold starts; wall_s and kicks_per_s {len(plain)} untraced passes; "
        f"op_p50_ms and op_tail_ms (p{tail_pct}) {len(samples)} operations",
        f"unpaced: setup_s {_median([s for s, _ in setup])!r} s, wall_s {_median(raw_walls)!r} s "
        f"(passes {min(raw_walls):.3f}..{max(raw_walls):.3f} s)",
        f"ops_failed_frac = {failed / attempted!r} ({failed} of {attempted} operations failed)",
        f"output digest {out_digest}",
    ]
    lines += [f"problem: {p}" for p in problems[:20]]

    if tracer is not None:
        traced_wall = pass_time([results for traced, results in passes if traced])
        constructed = (_median([p.get(tracing.CONSTRUCTED, 0) for p in layer_passes])
                       if tracer.available(tracing.CONSTRUCTED) else None)
        harness = {
            "cli.bytes_written": sum(op.out.stat().st_size for op in ops if op.out.exists()),
            "symspace.SymState.per_kick": None if constructed is None else constructed / kicks,
            "trace.wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / wall - 1.0,
        }
        layer = {}
        for name in names:
            if name in harness:
                layer[name] = harness[name]
            elif tracer.available(name):
                layer[name] = _median([p.get(name, 0) for p in layer_passes])
            else:
                layer[name] = None
        spans_file = WORK / f"spans-{workload.name}-seed{opts.seed}.npz"
        count = tracer.write_spans(spans_file)
        lines.append(f"{len(layer_passes)} traced passes; {count} spans written to {spans_file.relative_to(ROOT)}")
        lines += _shares(layer_passes, harness["trace.wall_s"])
        absent = sorted(name for name, value in layer.items() if value is None)
        if absent:
            lines.append(f"absent (the traced function no longer exists): {', '.join(absent)}")
        metrics.update(layer)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "lines": lines}


def _shares(layer_passes: list[dict], wall: float) -> list[str]:
    """Self-time shares of a traced pass: the largest functions, and every layer."""
    def shares(depth: int, limit: int) -> str:
        keys = [k for k in layer_passes[0] if k.endswith(".self_s") and k.count(".") == depth]
        values = {k[: -len(".self_s")]: _median([p[k] for p in layer_passes]) for k in keys}
        top = sorted(values.items(), key=lambda kv: -kv[1])[:limit]
        return "; ".join(f"{name} {100 * v / wall:.1f}%" for name, v in top)

    return [f"top self time: {shares(2, 8)}", f"layer self time: {shares(1, 9)}"]


if __name__ == "__main__":
    sys.exit(main())
