"""Benchmark of the graphgroups toolkit's four verdict-producing tasks.

    python3 bench/run.py --workload {words,search,centralizer,conceal} \\
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S

One process, one thread, one client in a closed loop: each op starts when
the previous one has returned. The program is imported from ``src/`` of
the checkout this file sits in; inputs are made from the seed by the
benchmark's own code, and every verdict is checked against a known answer.

``--trace 0`` runs whole batches of ops for about S seconds and reports the
end-to-end metrics; their times are scaled to a fixed machine speed by
``harness.Pacer``, and the unscaled figures are printed beside them. ``--trace 1`` runs a fixed list of batches (the same for
a given workload and seed, whatever the program's speed) under trace
wrappers, then once more without them, and reports the per-layer metrics
and the tracing overhead. ``all`` runs both for every workload in child
processes and prints one table. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINS = Path(__file__).resolve().parent / "pins.json"
SETUP_REPS = 7
# A run stops starting ops this long after it began measuring, and an op
# still running this long after the process started is interrupted (and
# counts as failed), so that a run ends within three minutes even when one
# batch or one op takes far longer than it does today.
HARD_STOP_S = 100
ALARM_S = 150
# String hashing orders the program's sets and dicts of vertex names, and
# with it how much work an op does: a words run varied by about 8% between
# hash seeds. A fixed seed keeps that out of the spread between runs.
HASH_SEED = "0"


class HardStop(Exception):
    pass


def _hard_stop(signum, frame):
    raise HardStop(f"op still running {ALARM_S} s after start")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


# -- the program -----------------------------------------------------------------


def import_program():
    """A fresh import of the package and its command-line module."""
    for name in [n for n in sys.modules if n == "graphgroups" or n.startswith("graphgroups.")]:
        del sys.modules[name]
    gg = importlib.import_module("graphgroups")
    cli = importlib.import_module("graphgroups.cli")
    if Path(gg.__file__).resolve().parent != (SRC / "graphgroups").resolve():
        raise RuntimeError(f"graphgroups imported from {gg.__file__}, not from {SRC}")
    return gg, cli


def setup(workload, pacer):
    """Import the program and build its objects from the inputs, several
    times, each timed into ``pacer``; the last build is the one the run
    uses. Returns the program and the set-up intervals."""
    intervals = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        gg, cli = import_program()
        workload.build(gg, cli)
        intervals.append((start, time.perf_counter()))
    return gg, intervals


# -- running ops -----------------------------------------------------------------


class Digests:
    """Output digests per pin key, compared with those pinned at the commit
    that ``make_pins.py`` last ran on."""

    def __init__(self, pinned):
        self.pinned = pinned
        self.matched = self.mismatched = self.unpinned = 0
        self.found = {}

    def compare(self, hashes):
        for key, h in hashes.items():
            digest = h.hexdigest()[:16]
            self.found[key] = digest
            expected = self.pinned.get(key)
            if expected is None:
                self.unpinned += 1
            elif expected == digest:
                self.matched += 1
            else:
                self.mismatched += 1


def run_batch(workload, batch, tally, pacer, digests, deadline):
    """Run a batch's ops in order until ``deadline``, adding each op's
    interval to ``pacer``; returns the ops run. Only a whole batch has its
    digests compared."""
    hashes = {}
    for done, (pin, payload) in enumerate(batch):
        if time.perf_counter() > deadline:
            return batch[:done]
        start = time.perf_counter()
        try:
            result = workload.call(payload)
            problem = None
        except Exception as exc:  # an op that raises is a failed verdict
            result, problem = exc, f"raised {type(exc).__name__}"
        pacer.add(start, time.perf_counter())
        if problem is None:
            try:
                problem = workload.check(payload, result)
            except Exception as exc:  # output the check cannot read
                problem = f"unreadable output ({type(exc).__name__})"
        tally.record(problem)
        if pin is not None:
            try:
                rendered = workload.render(payload, result) if problem is None else problem
            except Exception as exc:  # a changed result type shows as a digest change
                rendered = f"unrenderable {type(exc).__name__}"
            hashes.setdefault(pin, hashlib.sha256()).update(rendered.encode() + b"\0")
    digests.compare(hashes)
    return batch


def run_timed(workload, seconds, digests, pacer):
    """Whole batches while the next one, as long as the last, still fits in
    ``seconds`` and the workload has batches left; always at least one."""
    tally = harness.Tally()
    start = time.perf_counter()
    for batch in workload.batches():
        batch_start = time.perf_counter()
        if len(run_batch(workload, batch, tally, pacer, digests, start + HARD_STOP_S)) < len(batch):
            break
        now = time.perf_counter()
        if (now - start) + (now - batch_start) > seconds:
            break
    return tally, time.perf_counter() - start


def run_traced(workload, gg, digests):
    """The fixed trace batches under the wrappers, then the same ops again
    without them; the traced part gets two thirds of the hard stop."""
    tally, pacer = harness.Tally(), harness.Pacer()
    tracer = harness.Tracer()
    installed = layers.install(tracer, gg)
    ran = []
    try:
        tracer.enter("bench")
        deadline = time.perf_counter() + HARD_STOP_S * 2 / 3
        for batch in workload.trace_batches():
            ran.append(run_batch(workload, batch, tally, pacer, digests, deadline))
            if len(ran[-1]) < len(batch):
                break
        tracer.exit()
    finally:
        installed.restore()
    start = time.perf_counter()
    for batch in ran:
        run_batch(workload, batch, tally, pacer, digests, float("inf"))
    untraced = time.perf_counter() - start
    metrics = layers.metrics(tracer)
    metrics["tracing_overhead_s"] = (tracer.total_s["bench"] - untraced, "s")
    return tally, tracer, metrics


# -- reporting -------------------------------------------------------------------


def end_to_end(attempted, op_times, setup_times):
    tail_s = harness.tail(op_times)[1]
    return {
        "ops_per_s": attempted / sum(op_times),
        "op_p50_ms": harness.median(op_times) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": harness.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def metadata(args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "src_lines": src_lines,
    }


def commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_metadata(meta):
    for key, value in meta.items():
        print(f"# {key}: {value}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_one(args):
    if not (SRC / "graphgroups" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'graphgroups'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _hard_stop)
    signal.alarm(ALARM_S)
    print_metadata(metadata(args))
    with open(PINS, encoding="utf-8") as handle:
        pinned = json.load(handle)[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        workload = WORKLOADS[args.workload](args.seed, Path(work))
        digests = Digests(pinned)
        if args.trace:
            gg, _ = setup(workload, harness.Pacer())
            tally, tracer, metrics = run_traced(workload, gg, digests)
        else:
            with harness.Pacer() as pacer:
                gg, setup_intervals = setup(workload, pacer)
                tally, wall = run_timed(workload, args.seconds, digests, pacer)
        signal.alarm(0)
    print(f"ops {tally.attempted}, failed {tally.failed}, fail_ratio {tally.fail_ratio:.6g}")
    for problem, count in tally.problems.most_common(5):
        print(f"  problem x{count}: {problem}")
    print(f"digests: {digests.matched} match, {digests.mismatched} differ, "
          f"{digests.unpinned} unpinned")
    if args.trace:
        total_self = sum(tracer.self_s.values())
        print(f"traced wall {tracer.total_s['bench']:.6f} s = sum of self times "
              f"{total_self:.6f} s; benchmark's own {tracer.self_s['bench']:.6f} s")
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "dropped": tracer.dropped,
                       "self_s": tracer.self_s, "total_s": tracer.total_s,
                       "calls": tracer.calls, "counts": tracer.counts}, handle)
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        moves = {name: move for name, _, _, _, move in layers.PER_LAYER}
        for name, (value, unit) in metrics.items():
            print(f"{name:40s} {value:>16.6g} {unit:6s} -> {moves.get(name, '')}")
    else:
        setup_times = [pacer.interval(start, end) for start, end in setup_intervals]
        op_scaled, op_raw = pacer.times()
        values, raw = (
            end_to_end(tally.attempted, op_times, [pair[i] for pair in setup_times])
            for i, op_times in enumerate((op_scaled, op_raw))
        )
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        print(f"measured {wall:.3f} s wall, {sum(op_raw):.3f} s in the program, "
              f"{len(pacer.took)} reference samples, median "
              f"{harness.median(pacer.took) * 1e6:.1f} us "
              f"(nominal {harness.REF_NOMINAL_S * 1e6:.1f} us)")
        for name, (value, unit) in metrics.items():
            unscaled = "" if name == "peak_rss_mb" else f" (unscaled {raw[name]:.6g})"
            print(f"{name} = {value:.6g} {unit}{unscaled}")
        pct, _, beyond = harness.tail(op_scaled)
        print(f"op_tail_ms is p{pct:g} of {len(op_scaled)} ops, {beyond} beyond it")
    print(result_line(tally.failed == 0, tally.attempted, tally.failed, metrics))
    return 0


def run_all(args):
    """Every workload, untraced and traced, each in its own child process."""
    if not (SRC / "graphgroups" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'graphgroups'}", file=sys.stderr)
        return 2
    print_metadata(metadata(args))
    combined = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(child.stderr, file=sys.stderr)
                print(f"error: {name} --trace {trace} exited {child.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"\n== {name} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                if not line.startswith("# "):
                    print(f"   {line}")
            for metric, entry in result["metrics"].items():
                combined[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print(result_line(correct, attempted, failed, combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
