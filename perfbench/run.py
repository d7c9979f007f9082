#!/usr/bin/env python3
"""Benchmark of the noether experiment harness.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: reproduce, kill-shallow, rel-trials, derive-wide (see
``workloads.py``).  Each run is a closed loop: one process, one client, no
threads, the next unit starting when the previous one ends.

``--trace 0`` prints the end-to-end metrics, measured with tracing off in
rounds of (set-up probe, CLI process, in-process unit) until ``--seconds``
have passed:

* ``setup_s``: median, over fresh interpreters, of the seconds from the first
  ``import noether`` until the workload's inputs are loaded;
* ``verdict_s``: median wall seconds of one unit of work, in process, warm;
* ``cli_s``: median wall seconds of the workload's CLI command in a fresh
  process, import included;
* ``peak_rss_mb``: median peak resident memory (VmHWM) of that CLI process;
* ``pass_rate``: checked units (in process and CLI) whose output was right,
  over units attempted; 1 minus the fail rate, so that it is never 0.

The three timings are wall seconds rescaled to a reference machine speed
(see ``Rescaler``); the stamp line carries the raw medians as well.

``--trace 1`` runs untraced units, then the same units traced by
``tracer.py``, and prints the per-layer counts and seconds per unit, the
self time of each layer and the tracing overhead.  It fails the run if a
traced report differs from the untraced one, if a required layer records
no call, if the evaluations per stage do not add up to the total, or if a
count differs between two units of the same input (nondeterminism).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the environment.  Generated inputs, span files and per-run details
go under ``.perfbench/`` in the checkout.  ``--self-test`` runs the traced
checks once on every workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

import workloads as wl  # noqa: E402
from tracer import LAYERS, LayerMissing, Tracer  # noqa: E402

# Fewest measuring rounds of an untraced run, whatever --seconds says.
MIN_ROUNDS = 3
# Seconds the calibration loop takes at the reference speed (this loop's
# fast state on a 2.1 GHz Xeon with 2 vCPUs, Python 3.11).
CAL_REF = 0.0065
# Traced runs: untraced units first, then traced units.
PLAIN_SHARE, TRACED_SHARE = 0.4, 0.6
MIN_PLAIN, MIN_TRACED = 2, 2
CHILD_TIMEOUT = 150.0
# The installed `noether` entry point, plus the process's peak resident set
# written to stderr on the way out.
CLI_MAIN = (
    "import sys\n"
    "from noether.cli import main\n"
    "rc = main()\n"
    "sys.stderr.write(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
    "sys.exit(rc)\n"
)

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}

# per-layer count metric -> tracer counter
COUNTS = {
    "minilang.evals": "minilang.evals",
    "minilang.evals.equiv": "minilang.evals.equiv",
    "minilang.evals.tag": "minilang.evals.tag",
    "minilang.evals.check": "minilang.evals.check",
    "minilang.domain_errors": "minilang.domain_errors",
    "minilang.compiles": "minilang.compile",
    "minilang.folds": "minilang.fold",
    "mutate.mutants": "mutate.mutants",
    "mutate.equiv_calls": "mutate.equiv",
    "mutate.equiv_dropped": "mutate.equiv_dropped",
    "mutate.tag_calls": "mutate.tag",
    "mutate.tag_preserving": "mutate.tag_preserving",
    "zoo.sample_draws": "zoo.sample",
    "zoo.scaling_samples": "zoo.scaling_sample",
    "harness.mrs": "harness.mrs",
    "harness.excluded": "harness.excluded",
    "harness.tuple_calls": "harness.tuple",
    "harness.tuple_groups": "harness.tuple_groups",
    "harness.checks": "harness.check",
    "harness.check_fails": "harness.check_fails",
    "harness.cells": "harness.cells",
    "relational.trials": "relational.trial",
    "relational.trial_fails": "relational.trial_fails",
    "relational.rule_loads": "relational.rule_load",
    "specfile.parses": "specfile.parse",
    "algebra.decomposes": "algebra.decompose",
    "derive.cost_units": "derive.cost_units",
    "reachability.checks": "reachability.check",
    "stats.calls": "stats.call",
    "cli.commands": "cli.command",
}

# per-layer seconds metric -> tracer timer
TIMES = {
    "minilang.eval_s": "minilang.eval",
    "minilang.compile_s": "minilang.compile",
    "minilang.fold_s": "minilang.fold",
    "mutate.mutate_s": "mutate.mutate",
    "mutate.equiv_s": "mutate.equiv",
    "mutate.tag_s": "mutate.tag",
    "zoo.load_s": "zoo.load",
    "zoo.sample_s": "zoo.sample",
    "zoo.scaling_sample_s": "zoo.scaling_sample",
    "harness.tuple_s": "harness.tuple",
    "harness.check_s": "harness.check",
    "harness.kill_matrix_s": "harness.kill_matrix",
    "relational.trial_s": "relational.trial",
    "relational.db_s": "relational.db",
    "relational.rule_load_s": "relational.rule_load",
    "relational.rewrite_s": "relational.rewrite",
    "relational.eval_s": "relational.eval",
    "specfile.parse_s": "specfile.parse",
    "algebra.decompose_s": "algebra.decompose",
    "derive.construct_s": "derive.construct",
    "reachability.check_s": "reachability.check",
    "stats.stat_s": "stats.call",
    "cli.command_s": "cli.command",
}

PER_LAYER = (
    {name: "count" for name in COUNTS}
    | {name: "s" for name in TIMES}
    | {f"{layer}.self_s": "s" for layer in LAYERS}
    | {"trace.overhead_s": "s", "trace.spans": "count"}
)


class Refused(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def child_env(fixtures: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["NOETHER_FIXTURES"] = str(fixtures)
    return env


def run_child(argv, env):
    """(seconds, exit code, stdout, stderr) of one process."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "child.out", OUT / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            while True:
                pid, status = os.waitpid(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > CHILD_TIMEOUT:
                    raise TimeoutError(f"{argv[1:3]} ran over {CHILD_TIMEOUT} s")
                time.sleep(0.001)
            elapsed = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        elapsed,
        proc.returncode,
        out_path.read_text(encoding="utf-8"),
        err_path.read_text(encoding="utf-8"),
    )


def peak_rss_mb(stderr):
    """The VmHWM line CLI_MAIN writes last.  (A child's ru_maxrss would
    include its parent's resident set at fork time.)"""
    fields = stderr.strip().splitlines()[-1].split()
    if fields[0] != "VmHWM:" or fields[2] != "kB":
        raise ValueError(f"no VmHWM line in the CLI's stderr: {stderr[-200:]!r}")
    return int(fields[1]) / 1024.0


def import_package():
    if not (SRC / "noether" / "__init__.py").is_file():
        raise Refused(f"no package source at {SRC}/noether")
    sys.path.insert(0, str(SRC))
    import noether

    if Path(noether.__file__).resolve().parent != (SRC / "noether").resolve():
        raise Refused(f"noether imported from {noether.__file__}, not from {SRC}")


class Tally:
    """Units attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems = []
        self.failed = 0
        self.seeds = set()

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def note(self, problem):
        """A run-level failure that is not one unit's output."""
        self.problems.append(problem)


def load(workload):
    """The workload's inputs, read from its own fixtures directory."""
    os.environ["NOETHER_FIXTURES"] = str(workload.fixtures)
    return workload.load()


def timed(body):
    """(seconds, result) of body()."""
    start = time.perf_counter()
    result = body()
    return time.perf_counter() - start, result


def run_unit(workload, inputs, tally, label, tracer=None, scale=None):
    """One unit in process: (seconds, raw seconds, output or None).

    With a Rescaler, each step of the unit is rescaled on its own, so that a
    speed change within a long unit is tracked.  Only the unit is traced;
    checking its output is not.
    """
    os.environ["NOETHER_FIXTURES"] = str(workload.fixtures)
    output, seconds, raw = [], 0.0, 0.0
    if tracer is not None:
        tracer.on = True
    try:
        for step in workload.steps(inputs):
            if scale is None:
                step_raw, part = timed(step)
                step_seconds = step_raw
            else:
                step_seconds, step_raw, part = scale.time(lambda: timed(step))
            seconds += step_seconds
            raw += step_raw
            output.append(part)
    except Exception as exc:  # a raising unit is a failed unit
        tally.record(label, [f"raised {exc!r}"])
        return seconds, raw, None
    finally:
        if tracer is not None:
            tracer.on = False
    try:
        problems = workload.check_unit(output)
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    tally.record(label, problems)
    for text in workload.reports(output):
        if text.startswith('{"command"'):  # a CLI report, not a derive-wide summary
            tally.seeds.add(wl.parse_report(text)[0].get("seed"))
    return seconds, raw, output


def loop(min_count, seconds, body):
    """Call body() until min_count calls are done and `seconds` have passed."""
    samples = []
    start = time.perf_counter()
    while len(samples) < min_count or time.perf_counter() - start < seconds:
        samples.append(body())
    return samples


def check_reference(name, tally):
    """The reference unit at REFERENCE_SEED; doubles as the warm-up."""
    ref = wl.make(name, ROOT, wl.REFERENCE_SEED)
    ref.generate()
    run_unit(ref, load(ref), tally, "reference")


def calibration():
    """Seconds a fixed pure-Python loop takes now: the machine's speed.

    The median of three runs, so that a millisecond blip (an interrupt, a
    neighbour's burst) does not stand for the speed of a whole sample.
    """
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        x, table = 0, {}
        for i in range(60000):
            x = (x * 31 + i) % 1000003
            table[i & 255] = x
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


class Rescaler:
    """Times samples at the reference speed.

    The machine's speed drifts by up to 2x over seconds (other tenants share
    its cores), and process CPU time drifts with it.  Each sample is scaled
    by CAL_REF over the mean of the calibration loops timed just before and
    just after it; the raw seconds are kept next to the scaled ones.
    """

    def __init__(self):
        self.last = calibration()

    def time(self, body):
        """(scaled seconds, raw seconds, result) of body(), which returns
        (raw seconds, result)."""
        before = self.last
        raw, result = body()
        self.last = calibration()
        return raw * CAL_REF * 2 / (before + self.last), raw, result


def measure_end_to_end(workload, seconds, tally):
    """Rounds of (set-up probe, CLI process, in-process unit) until `seconds`
    have passed, so that every metric samples the whole run."""
    env = child_env(workload.fixtures)
    probe = [sys.executable, str(HERE / "probe.py"), workload.name, str(workload.seed)]
    cli = [sys.executable, "-c", CLI_MAIN] + workload.cli_argv()

    def setup_once():
        _, rc, out, err = run_child(probe, env)
        if rc != 0:
            raise RuntimeError(f"set-up probe exit {rc}: {err.strip()[-300:]}")
        return json.loads(out.splitlines()[-1])["setup_s"], None

    def cli_once():
        elapsed, rc, out, err = run_child(cli, env)
        try:
            rss = peak_rss_mb(err)
            problems = workload.check_cli(rc, out)
            tally.seeds.add(wl.parse_report(out)[0].get("seed"))
        except Exception as exc:
            rss = 0.0
            problems = [f"exit {rc}, unreadable output ({exc!r}): {err.strip()[-300:]}"]
        tally.record("cli", problems)
        return elapsed, rss

    setup_once()  # writes bytecode caches and warms the file cache
    inputs = load(workload)
    scale = Rescaler()
    setups, cli_runs, units = [], [], []

    def round_once():
        setups.append(scale.time(setup_once))
        cli_runs.append(scale.time(cli_once))
        units.append(run_unit(workload, inputs, tally, "unit", scale=scale))

    loop(MIN_ROUNDS, seconds, round_once)
    metrics = {
        "setup_s": statistics.median([s for s, _, _ in setups]),
        "verdict_s": statistics.median([s for s, _, _ in units]),
        "cli_s": statistics.median([s for s, _, _ in cli_runs]),
        "peak_rss_mb": statistics.median([rss for _, _, rss in cli_runs]),
        "pass_rate": (tally.attempted - tally.failed) / tally.attempted,
    }
    samples = {name: [(s, raw) for s, raw, _ in samples]
               for name, samples in (("setup_s", setups), ("verdict_s", units), ("cli_s", cli_runs))}
    samples["raw_medians"] = {name: statistics.median([raw for _, raw in v]) for name, v in samples.items()}
    return metrics, samples


def measure_layers(workload, seconds, tally, min_plain=MIN_PLAIN, min_traced=MIN_TRACED):
    inputs = load(workload)
    plain = []

    scale = Rescaler()

    def plain_once():
        elapsed, _, output = run_unit(workload, inputs, tally, "unit", scale=scale)
        plain.append(None if output is None else workload.reports(output))
        return elapsed

    plain_times = loop(min_plain, PLAIN_SHARE * seconds, plain_once)

    tracer = Tracer()
    try:
        tracer.install()
    except LayerMissing as exc:
        tally.note(f"tracer: {exc}")
        return {}, {}
    snapshots = []

    def traced_once():
        tracer.reset(keep_spans=not snapshots)
        elapsed, _, output = run_unit(workload, inputs, tally, "traced unit", tracer, scale)
        if output is not None and plain[0] is not None and workload.reports(output) != plain[0]:
            tally.note("traced report differs from the untraced report")
        snapshots.append((dict(tracer.counts), dict(tracer.times), dict(tracer.self_times),
                          tracer.layer_calls(), tracer.spans))
        return elapsed

    try:
        traced_times = loop(min_traced, TRACED_SHARE * seconds, traced_once)
    finally:
        tracer.uninstall()

    counts, _, _, calls, spans = snapshots[0]
    for i, snap in enumerate(snapshots[1:], 1):
        if snap[0] != counts:
            drift = {k: (counts.get(k), snap[0].get(k)) for k in set(counts) | set(snap[0])
                     if counts.get(k) != snap[0].get(k)}
            tally.note(f"nondeterminism: traced unit {i} counts differ from unit 0: {drift}")
    silent = [layer for layer in workload.required_layers if not calls.get(layer)]
    if silent:
        tally.note(f"layers recorded zero calls: {silent}")
    by_stage = sum(counts.get(f"minilang.evals.{s}", 0) for s in ("equiv", "tag", "check"))
    if by_stage != counts.get("minilang.evals", 0):
        tally.note(f"evaluations per stage {by_stage} != total {counts.get('minilang.evals', 0)}")

    n = len(snapshots)
    metrics = {name: counts.get(key, 0) for name, key in COUNTS.items()}
    for name, key in TIMES.items():
        metrics[name] = sum(s[1].get(key, 0.0) for s in snapshots) / n
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(s[2].get(layer, 0.0) for s in snapshots) / n
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
    metrics["trace.spans"] = len(spans)
    write_spans(workload, spans)
    samples = {"verdict_s": plain_times, "traced_s": traced_times, "layer_calls": calls}
    return metrics, samples


def write_spans(workload, spans):
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    origin = spans[0][1] if spans else 0.0
    path = OUT / "spans" / f"{workload.name}-{workload.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                 "parent": parent}) + "\n")


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "noether").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def stamp(workload, trace, load_before, report_seeds, extra):
    """Where and on what a result was measured."""
    import numpy

    return {
        "workload": workload.name,
        "seed": workload.seed,
        "report_seeds": sorted(s for s in report_seeds if s is not None),
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "commit": commit(),
        "source_digest": source_digest(),
        **extra,
    }


def run(name, seed, seconds, trace):
    load_before = list(os.getloadavg())
    import_package()
    workload = wl.make(name, ROOT, seed)
    workload.generate()
    tally = Tally()
    check_reference(name, tally)
    if trace:
        metrics, samples = measure_layers(workload, seconds, tally)
        units = PER_LAYER
        extra = {"tracing_overhead_s": metrics.get("trace.overhead_s")}
    else:
        metrics, samples = measure_end_to_end(workload, seconds, tally)
        units = END_TO_END
        extra = {"samples": len(samples["verdict_s"]), "raw_medians": samples["raw_medians"]}
    info = stamp(workload, trace, load_before, tally.seeds, extra)
    correct = not tally.problems and set(metrics) == set(PER_LAYER if trace else END_TO_END)
    OUT.mkdir(exist_ok=True)
    details = {"stamp": info, "problems": tally.problems, "metrics": metrics, "samples": samples}
    (OUT / f"result-{name}-{seed}-trace{trace}.json").write_text(json.dumps(details, indent=1, default=str))
    for problem in tally.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": info}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def self_test():
    """Traced checks on every workload, and BENCHMARK.json against this file."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    if {m["name"] for m in spec["end_to_end"]} != set(END_TO_END):
        print("self-test: BENCHMARK.json end_to_end differs from END_TO_END", file=sys.stderr)
        ok = False
    if {m["name"] for m in spec["per_layer"]} != set(PER_LAYER):
        print("self-test: BENCHMARK.json per_layer differs from PER_LAYER", file=sys.stderr)
        ok = False
    if {w["name"] for w in spec["workloads"]} != set(wl.WORKLOADS):
        print("self-test: BENCHMARK.json workloads differ from workloads.py", file=sys.stderr)
        ok = False
    import_package()
    for name in wl.WORKLOADS:
        workload = wl.make(name, ROOT, 7)
        workload.generate()
        tally = Tally()
        check_reference(name, tally)
        measure_layers(workload, 0.0, tally, min_plain=1, min_traced=2)
        status = "ok" if not tally.problems else "FAIL"
        print(f"self-test {name}: {status}")
        for problem in tally.problems:
            print(f"  {problem}")
        ok = ok and not tally.problems
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="noether benchmark")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        if not 0 <= args.seed < 2**32:
            raise Refused("--seed must be in [0, 2**32)")
        run(args.workload, args.seed, args.seconds, args.trace)
        return 0
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
