#!/usr/bin/env python3
"""The botscope CLI benchmark.

Run from the root of a checkout:

    python3 botbench/run.py --workload coupled-csv --seed 3 --seconds 45 --trace 0

It builds the release `botscope` binary and the `botbench` helper from
source, generates the workload's inputs from the seed, and runs the
workload's CLI commands the way a user would: a closed loop, one command
at a time, `BOTSCOPE_THREADS=2`, no telemetry flags. Every command's
output is checked against the per-seed references in `references.json`.

--trace 0  times the CLI commands and prints the end-to-end metrics, with
           times scaled to a reference host speed (`botbench probe`).
--trace 1  replays every workload through the library (`botbench trace`),
           timing each layer call, and prints the per-layer metrics.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` (command invocations, and traced replays, that exited nonzero or
whose output differs from the reference) and `metrics`. A human-readable
summary goes to stderr. See README.md beside this file.

Maintenance modes:
    --record            re-record references.json for the chosen --scale
                        (every workload seed, every workload)
    --scale tiny        small inputs, for the self-check (selfcheck.py)
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(BENCH_DIR, "references.json")
WORKLOADS = ("coupled-csv", "stream-bin", "ingest-csv", "estate")
THREADS = "2"
# The driver's seed picks one of these workload seeds; each has recorded
# reference outputs, so a seed always yields the same, checked inputs.
SEED_SLOTS = 16
# Set-up (input generation, or a warm-up run of the first command for a
# workload without inputs) is repeated this many times per run; setup_s
# is the median.
SETUPS = 5
# The shared host's speed drifts by tens of percent over minutes, and every
# workload slows with it. So each set-up and iteration is bracketed by two
# runs of `botbench probe`, a fixed std-only kernel, and its times are
# scaled by PROBE_REF_S / (mean of the two probe times): seconds at the
# speed where the probe takes PROBE_REF_S, its median on a quiet host.
PROBE_REF_S = 0.25
TIMES = ("wall_s", "cpu_s", "lead_s", "tail_s")

SCALES = {
    "paper": {
        "coupled_scale": "1.0", "coupled_sites": "36", "log_scale": "1.0",
        "monitor_sites": "20000", "monitor_days": "46",
        "queries": "2000000", "query_sites": "5000",
    },
    "tiny": {
        "coupled_scale": "0.02", "coupled_sites": "6", "log_scale": "0.02",
        "monitor_sites": "200", "monitor_days": "12",
        "queries": "20000", "query_sites": "50",
    },
}

ADMIT_SUMMARY = re.compile(rb"(\d+) queries over \d+ site\(s\): (\d+) allowed, (\d+) denied")


def log(message):
    print(message, file=sys.stderr, flush=True)


class Cmd:
    """One CLI invocation and the artifacts it is checked by.

    `checks` maps an artifact source to its reference key: "stdout" and
    "stderr" (SHA-256 of the stream), "admit" (the allowed/denied counts
    on stderr) or ("file", path) (SHA-256 of a file the command wrote).
    """

    def __init__(self, argv, checks):
        self.argv = argv
        self.checks = checks


class Workload:
    """A workload's inputs, commands and traced replay for one seed."""

    def __init__(self, name, seed, scale, work, bins):
        self.name = name
        s = SCALES[scale]
        botscope, botbench = bins
        seed = str(seed)
        self.inputs, self.commands = [], []
        if name == "coupled-csv":
            # The CSV streams into this process over a pipe and is hashed
            # on the fly: verified without disk-writeback noise.
            self.commands = [Cmd(
                [botscope, "simulate", "--coupled", "--scale", s["coupled_scale"],
                 "--sites", s["coupled_sites"], "--basis", "believed", "--seed", seed,
                 "--out", "-"],
                {"stdout": "csv", "stderr": "report"})]
            self.trace = ["coupled-csv", "--seed", seed, "--scale", s["coupled_scale"],
                          "--sites", s["coupled_sites"]]
        elif name == "stream-bin":
            log_bin = os.path.join(work, "phase.bin")
            self.commands = [
                Cmd([botscope, "simulate", "7", s["log_scale"], log_bin, seed, "--phase-study",
                     "--stream", "--format", "bin"], {("file", log_bin): "bin"}),
                Cmd([botscope, "analyze", "--phase-report", log_bin], {"stdout": "report"}),
            ]
            self.trace = ["stream-bin", "--seed", seed, "--scale", s["log_scale"],
                          "--work", work]
        elif name == "ingest-csv":
            log_csv = os.path.join(work, "phase.csv")
            self.inputs = [Cmd([botscope, "simulate", "7", s["log_scale"], log_csv, seed,
                                "--phase-study"], {("file", log_csv): "input"})]
            # Both engines must print the same bytes: one reference key.
            self.commands = [
                Cmd([botscope, "analyze", "--phase-report", log_csv], {"stdout": "phase_report"}),
                Cmd([botscope, "analyze", "--phase-report", "--table", log_csv],
                    {"stdout": "phase_report"}),
                Cmd([botscope, "analyze", log_csv], {"stdout": "plain"}),
            ]
            self.trace = ["ingest-csv", "--input", log_csv]
        elif name == "estate":
            queries = os.path.join(work, "queries.csv")
            self.inputs = [Cmd([botbench, "queries", "--seed", seed, "--count", s["queries"],
                                "--sites", s["query_sites"], "--out", queries],
                               {("file", queries): "queries"})]
            self.commands = [
                Cmd([botscope, "monitor", "--sites", s["monitor_sites"], "--days",
                     s["monitor_days"], "--seed", seed], {"stdout": "monitor"}),
                Cmd([botscope, "admit", "--quiet", queries], {"admit": "admit"}),
            ]
            self.trace = ["estate", "--seed", seed, "--sites", s["monitor_sites"],
                          "--days", s["monitor_days"], "--queries", queries]
        else:
            raise ValueError(f"unknown workload {name!r}")


class Runner:
    """Spawns commands, measures them from outside, checks their outputs."""

    def __init__(self, work, references, record):
        self.work = work
        self.references = references  # reference key -> value, or None when recording
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, BOTSCOPE_THREADS=THREADS, TMPDIR=os.path.join(work, "tmp"))
        # Only the workload's own settings apply.
        self.env.pop("BOTSCOPE_MATCHER", None)

    def check(self, key, observed, what):
        """Compare (or record) one artifact; returns whether it matched."""
        if self.record is not None:
            previous = self.record.setdefault(key, observed)
            if previous != observed:
                log(f"  {what}: {key} differs between commands while recording")
                return False
            return True
        expected = self.references.get(key)
        if expected != observed:
            log(f"  MISMATCH {what}: {key} = {observed}, reference {expected}")
            return False
        return True

    def run(self, cmd):
        """Run one command; returns (wall_s, first_byte_s, cpu_s, peak_rss_kb, ok)."""
        self.attempted += 1
        err_path = os.path.join(self.work, "stderr.txt")
        with open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd.argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=err, env=self.env)
        fd = proc.stdout.fileno()
        try:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, 1 << 20)
        except OSError:
            pass
        digest = hashlib.sha256()
        first_byte = None
        try:
            while True:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    break
                if first_byte is None:
                    first_byte = time.perf_counter()
                digest.update(chunk)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        finished = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)

        with open(err_path, "rb") as f:
            stderr = f.read()
        what = os.path.basename(cmd.argv[0]) + " " + cmd.argv[1]
        ok = proc.returncode == 0
        if not ok:
            log(f"  FAILED {what}: exit {proc.returncode}\n{stderr.decode(errors='replace')[-2000:]}")
        for source, key in cmd.checks.items():
            if source == "stdout":
                observed = digest.hexdigest()
            elif source == "stderr":
                observed = hashlib.sha256(stderr).hexdigest()
            elif source == "admit":
                m = ADMIT_SUMMARY.search(stderr)
                observed = f"{int(m.group(2))}/{int(m.group(3))}" if m else "missing"
            else:
                observed = file_sha256(source[1])
            ok = self.check(key, observed, what) and ok
        if not ok:
            self.failed += 1
        wall = finished - started
        first = (first_byte if first_byte is not None else finished) - started
        return wall, first, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, ok

    def trace(self, botbench, args):
        """Run one traced replay; returns its parsed JSON line, or None."""
        self.attempted += 1
        proc = subprocess.run([botbench, "trace"] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=self.env)
        if proc.returncode != 0:
            log(f"  FAILED trace {args[0]}: {proc.stderr.decode(errors='replace')[-2000:]}")
            self.failed += 1
            return None
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        ok = all(self.check(k, v, f"trace {args[0]}") for k, v in result["artifacts"].items())
        if not ok:
            self.failed += 1
        return result


def file_sha256(path):
    """Hash a file a command wrote, after flushing it to disk (untimed), so
    its writeback does not run under the next measured command."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            os.fsync(f.fileno())
            while chunk := f.read(1 << 20):
                digest.update(chunk)
    except OSError:
        return "missing"
    return digest.hexdigest()


def build(root):
    """Build both binaries from source; returns their paths."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    for args in (["--bin", "botscope"], ["--manifest-path", "botbench/Cargo.toml"]):
        proc = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                              cwd=root, env=env, stdout=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: cargo build {' '.join(args)} failed")
    release = os.path.join(root, target, "release")
    return os.path.join(release, "botscope"), os.path.join(release, "botbench")


def iteration(runner, workload):
    """One closed-loop pass over the workload's commands."""
    runs = [runner.run(cmd) for cmd in workload.commands]
    wall = sum(r[0] for r in runs)
    # Lead: the first command. A single command (coupled-csv) splits at
    # its first output byte: generation before, encoding and scoring after.
    lead = runs[0][1] if len(runs) == 1 else runs[0][0]
    return {
        "wall_s": wall,
        "cpu_s": sum(r[2] for r in runs),
        "peak_rss_mb": max(r[3] for r in runs) / 1024.0,
        "lead_s": lead,
        "tail_s": wall - lead,
    }


def setup(runner, workload):
    """Generate the inputs or, without inputs, warm up with the first
    command (generating inputs already loads the binary and leaves the
    inputs in the page cache); returns seconds."""
    return sum(runner.run(cmd)[0] for cmd in workload.inputs or workload.commands[:1])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.join(path, "tmp"))


def summarize(name, values, unit):
    values = sorted(values)
    med = statistics.median(values)
    spread = ""
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        spread = f"  IQR {q[0]:.4g}..{q[2]:.4g}"
    log(f"  {name:<44} {med:>12.4f} {unit:<6} n={len(values)}  min {values[0]:.4g}  "
        f"max {values[-1]:.4g}{spread}")


def probe(botbench):
    """Seconds one run of the host-speed probe takes."""
    proc = subprocess.run([botbench, "probe"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError(f"botbench probe failed: {proc.stderr.decode(errors='replace')}")
    return float(proc.stdout)


def measure_end_to_end(runner, workload, seconds, botbench):
    probes = [probe(botbench)]

    def host_scale():
        probes.append(probe(botbench))
        return PROBE_REF_S / statistics.fmean(probes[-2:])

    setups, raw_setups = [], []
    for _ in range(SETUPS):
        raw_setups.append(setup(runner, workload))
        setups.append(raw_setups[-1] * host_scale())
    # Iterate while another whole iteration still fits in `seconds`.
    samples, raw_walls = [], []
    started = time.perf_counter()
    last = 0.0
    while not samples or time.perf_counter() - started + last <= seconds:
        began = time.perf_counter()
        sample = iteration(runner, workload)
        raw_walls.append(sample["wall_s"])
        scale = host_scale()
        samples.append({k: v * scale if k in TIMES else v for k, v in sample.items()})
        last = time.perf_counter() - began
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "lead_s": "s", "tail_s": "s"}
    metrics = {}
    log(f"{workload.name}: {len(samples)} iterations, {SETUPS} set-ups; "
        f"times are scaled to a {PROBE_REF_S} s probe")
    summarize("probe_s (raw)", probes, "s")
    summarize("wall_s (raw)", raw_walls, "s")
    summarize("setup_s (raw)", raw_setups, "s")
    for name, unit in units.items():
        values = [s[name] for s in samples]
        summarize(name, values, unit)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    summarize("setup_s", setups, "s")
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return metrics


def measure_traced(runner, workloads, references, bins, seconds):
    """Traced rounds over every workload while another round fits in `seconds`."""
    rounds = []
    started = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - started + last <= seconds:
        began = time.perf_counter()
        values = {}
        for workload in workloads:
            fresh_dir(runner.work)
            runner.references = references[workload.name]
            setup(runner, workload)
            wall_ms = iteration(runner, workload)["wall_s"] * 1e3
            result = runner.trace(bins[1], workload.trace)
            if result is None:
                continue
            for name, metric in result["metrics"].items():
                values[f"{workload.name}.{name}"] = (metric["value"], metric["unit"])
            traced = result["wall_ms"]
            values[f"{workload.name}.traced_wall_ms"] = (traced, "ms")
            values[f"{workload.name}.unattributed_ms"] = (traced - result["timed_ms"], "ms")
            values[f"{workload.name}.trace_overhead_ms"] = (traced - wall_ms, "ms")
            log(f"{workload.name}: timed layer calls cover "
                f"{100.0 * result['timed_ms'] / traced:.1f}% of {traced:.1f} ms traced wall")
        rounds.append(values)
        last = time.perf_counter() - began
    metrics = {}
    for name in sorted(rounds[0]):
        samples = [r[name][0] for r in rounds if name in r]
        metrics[name] = {"value": statistics.median(samples), "unit": rounds[0][name][1]}
    return metrics


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def record(root, bins, scale):
    """Re-record every workload seed's reference outputs at `scale`."""
    references = load_references() if os.path.exists(REFERENCES) else {}
    table = references.setdefault(scale, {})
    for slot in range(1, SEED_SLOTS + 1):
        for name in WORKLOADS:
            work = os.path.join(root, ".bench_work", name)
            fresh_dir(work)
            recorded = {}
            runner = Runner(work, None, recorded)
            workload = Workload(name, slot, scale, work, bins)
            for cmd in workload.inputs + workload.commands:
                runner.run(cmd)
            shutil.rmtree(work, ignore_errors=True)
            if runner.failed:
                sys.exit(f"error: recording {name} seed {slot} failed")
            table.setdefault(str(slot), {})[name] = recorded
            log(f"recorded {scale} seed {slot} {name}")
    with open(REFERENCES, "w") as f:
        json.dump(references, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("src", "bin", "botscope.rs"),
                   os.path.join("botbench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.exit(f"error: run from the root of a botscope checkout ({needed} not found)")
    bins = build(root)
    if args.record:
        record(root, bins, args.scale)
        return
    if args.workload is None:
        parser.error("--workload is required")

    slot = 1 + args.seed % SEED_SLOTS
    references = load_references().get(args.scale, {}).get(str(slot))
    if references is None:
        sys.exit(f"error: no {args.scale} references for workload seed {slot}; run --record")
    work = os.path.join(root, ".bench_work", args.workload)
    fresh_dir(work)
    log(f"workload seed {slot} (from --seed {args.seed}), scale {args.scale}, "
        f"BOTSCOPE_THREADS={THREADS}, {os.cpu_count()} cores")
    try:
        if args.trace:
            # The traced run replays every workload, so every per-layer
            # metric is present whichever workload is named.
            runner = Runner(work, None, None)
            workloads = [Workload(name, slot, args.scale, work, bins) for name in WORKLOADS]
            metrics = measure_traced(runner, workloads, references, bins, args.seconds)
        else:
            runner = Runner(work, references[args.workload], None)
            workload = Workload(args.workload, slot, args.scale, work, bins)
            metrics = measure_end_to_end(runner, workload, args.seconds, bins[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another workload's run still uses it
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
