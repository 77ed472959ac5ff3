#!/usr/bin/env python3
"""ValueCheck benchmark: one command runs a workload and prints its metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds valuecheck, vc_corpusgen
and the benchmark's helper (perfbench/vc_perfbench.cc) into .bench_build/,
generates the workload's inputs from --seed under .bench_build/work/, and
measures for --seconds seconds. End-to-end numbers come from the shipped
`valuecheck` binary run as a child process with tracing off. With --trace 1 a
separate traced pass (vc_perfbench trace) calls each layer's entry point in
pipeline order and reports per-layer metrics instead.

Workloads (BENCHMARK.json says why each was chosen):
  batch-linux-medium  `valuecheck analyze --format=csv DIR` over a seeded
                      linux-like/medium corpus (1,800 files, ~106k LOC), at
                      --jobs=nproc and --jobs=1.
  paper-history       `valuecheck analyze --history APP.vchist` over the four
                      calibrated paper applications scaled x4, at both job
                      counts.
  serve-edit          `valuecheck serve` with default admission, four
                      linux-like/small warehouses, seeded one-file edits.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (every end_to_end metric of BENCHMARK.json with --trace 0, every
per_layer metric with --trace 1). A failed correctness gate, or a metric that
BENCHMARK.json names but the run did not produce, exits non-zero.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "cmake"
WORK = ROOT / ".bench_build" / "work"
PERFBENCH_DIR = Path(__file__).resolve().parent

# The default seed, and a seed held out for checking later claims on inputs
# that were not used while a change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 8191

NPROC = os.cpu_count() or 1
BATCH_CORPUS = ["--profile", "linux-like", "--scale", "medium"]
HISTORY_SCALE = 4
WAREHOUSES = 4
SETUPS = 5  # set-ups per run; setup_s is their median

# serve-edit open-loop rates, in requests per second, fixed once from the
# daemon's capacity at the default seed on a 4-thread machine: 55-85
# requests/s as the shared host's speed drifted, so the light rate is a
# quarter to a third of it and the heavy rate half to three quarters.
LIGHT_RPS = 20.0
HEAVY_RPS = 40.0
LOAD_REQUESTS = 1000  # per fixed rate: p99 then has 10 samples beyond it
RATE_LADDER = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
LADDER_SECONDS = 3.0
LATENCY_LIMIT_MS = 100.0
# A failed or refused request misses every latency limit: it sorts as
# infinitely slow, and a quantile that lands on one is reported as this.
FAILED_MS = 1e9


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("run from the root of a ValueCheck checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(PERFBENCH_DIR), "-B", str(BUILD)])
    run_quiet(["cmake", "--build", str(BUILD), "-j", str(NPROC), "--target",
               "valuecheck", "vc_corpusgen", "vc_perfbench"])
    return {
        "valuecheck": BUILD / "valuecheck" / "tools" / "valuecheck",
        "corpusgen": BUILD / "valuecheck" / "tools" / "vc_corpusgen",
        "perfbench": BUILD / "vc_perfbench",
    }


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"{cmd[0]} {cmd[1]} failed with exit {proc.returncode}")


# --------------------------------------------------------------------------
# Helpers


def rel(path):
    return os.path.relpath(path, ROOT)


def remove(path):
    if path.exists():
        subprocess.run(["rm", "-rf", str(path)], check=True)


def settle(dirs):
    """Drops all but the last set-up's inputs and flushes the writes, so
    neither disk space nor write-back carries into the timed runs."""
    for path in dirs[:-1]:
        remove(path)
    os.sync()


def timed_child(cmd, stdout_path):
    """Runs one child to exit; returns (wall seconds, exit code, ru_maxrss MB)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def helper_json(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError(f"{Path(cmd[0]).name} {cmd[1]} failed with exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def csv_rows(path):
    rows = list(csv.reader(io.StringIO(Path(path).read_text())))
    return [r for r in rows[1:] if r]


def quantile(sorted_values, q):
    """Nearest-rank quantile of raw samples (no bucketing)."""
    if not sorted_values:
        raise BenchError("quantile of no samples")
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def tail(samples, q):
    """(value, samples beyond it) for quantile q of raw samples."""
    values = sorted(samples)
    value = quantile(values, q)
    return value, sum(1 for v in values if v > value)


def cli_exit_ok(code, csv_path):
    # `valuecheck analyze` exits 1 when it reports findings, 0 when none.
    return code == (1 if csv_rows(csv_path) else 0)


class Run:
    """Accumulates one workload run's operations, metrics and gate results."""

    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.gates = {}
        self.metrics = {}
        self.notes = []

    def op(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def gate(self, name, ok, detail=""):
        self.gates[name] = self.gates.get(name, True) and bool(ok)
        if not ok:
            log(f"{self.name}: gate {name} FAILED {detail}")

    @property
    def correct(self):
        return bool(self.gates) and all(self.gates.values()) and self.failed == 0


def alternate(seconds, min_rounds, round_fn):
    """Calls round_fn(i) until `seconds` pass, at least min_rounds times."""
    start = time.perf_counter()
    i = 0
    while i < min_rounds or time.perf_counter() - start < seconds:
        round_fn(i)
        i += 1


# --------------------------------------------------------------------------
# Traced pass (--trace 1)


def traced_pass(run, tools, mode, seed, inputs, cli_csv, untraced_wall, edits):
    trace_csv = WORK / "trace.csv"
    result = helper_json([str(tools["perfbench"]), "trace", "--mode", mode,
                          "--jobs", str(NPROC), "--seed", str(seed), "--edits", str(edits),
                          "--csv-out", rel(trace_csv)] + inputs)
    run.gate("trace_reconciled", result["reconciled"],
             f"self {sum(result['self_s'].values())} unattributed "
             f"{result['unattributed_s']} wall {result['wall_s']}")
    if cli_csv is not None:
        run.gate("trace_csv_equals_cli", digest(trace_csv) == digest(cli_csv))
    m = dict(result["metrics"])
    m["unattributed.s"] = result["unattributed_s"]
    m["traced_wall.s"] = result["wall_s"]
    m["trace_overhead.s"] = result["pipeline_wall_s"] - untraced_wall
    run.metrics.update(m)
    run.notes.append(("traced pass self seconds", result["self_s"]))
    return result


def load_defaults(run):
    """Open-loop rows that only serve-edit measures."""
    for key in ["load.light_p50_ms", "load.light_p99_ms", "load.heavy_p50_ms",
                "load.heavy_p99_ms", "load.max_rps", "load.light_n", "load.heavy_n",
                "gen.lag_ms", "server.shed", "server.deadline", "server.failed"]:
        run.metrics.setdefault(key, 0.0)


# --------------------------------------------------------------------------
# batch-linux-medium


def batch_workload(run, tools, seed, seconds, trace):
    setups = []
    for k in range(SETUPS):
        corpus = WORK / f"batch-{k}"
        remove(corpus)
        start = time.perf_counter()
        subprocess.run([str(tools["corpusgen"])] + BATCH_CORPUS +
                       ["--seed", str(seed), "--out", rel(corpus), "--quiet"],
                       cwd=ROOT, check=True)
        setups.append(time.perf_counter() - start)
    settle([WORK / f"batch-{k}" for k in range(SETUPS)])
    corpus = rel(WORK / f"batch-{SETUPS - 1}")

    walls = {NPROC: [], 1: []}
    rss = {NPROC: [], 1: []}
    outcomes = []  # (exit code as expected, CSV digest) per run

    def one(jobs):
        out = WORK / f"batch-{jobs}.csv"
        wall, code, maxrss = timed_child(
            [str(tools["valuecheck"]), "analyze", "--format=csv", f"--jobs={jobs}", corpus], out)
        outcomes.append((cli_exit_ok(code, out), digest(out)))
        walls[jobs].append(wall)
        rss[jobs].append(maxrss)

    def pair(i):
        for jobs in ((NPROC, 1) if i % 2 == 0 else (1, NPROC)):
            one(jobs)

    alternate(seconds, 3, pair)
    # Every run's findings must be the same bytes at either job count, and
    # the bytes recorded for this seed when baseline.json has them.
    digests = {d for _, d in outcomes}
    recorded = recorded_digest("batch-linux-medium", seed)
    reference = recorded or outcomes[0][1]
    for exit_ok, d in outcomes:
        run.op(exit_ok and d == reference)
    run.notes.append(("csv digest", sorted(digests)))
    run.gate("csv_identical_across_jobs_and_runs", len(digests) == 1, str(digests))
    if recorded is not None:
        run.gate("csv_digest_matches_recorded", digests == {recorded}, recorded)
    run.metrics.update({
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls[NPROC]),
        "wall_1job_s": statistics.median(walls[1]),
        "peak_rss_mb": statistics.median(rss[NPROC]),
    })
    run.notes.append(("samples", {"wall_s": len(walls[NPROC]), "wall_1job_s": len(walls[1])}))
    if trace:
        traced_pass(run, tools, "batch", seed, [corpus], WORK / f"batch-{NPROC}.csv",
                    run.metrics["wall_s"], edits=3)
        load_defaults(run)
        share = sum(run.metrics[k] for k in ["core.filter.s", "core.prune.s",
                                             "core.fingerprint.s", "core.emit.s"])
        run.notes.append(("serial tail (filter+prune+fingerprint+emit) / wall_s",
                          share / run.metrics["wall_s"]))


# --------------------------------------------------------------------------
# paper-history


def load_expected(path):
    """Ground-truth sites the detector must report: {(file, line): site}."""
    by_location = {}
    sites = set()
    for line in Path(path).read_text().splitlines():
        file, site_line, alt, _real = line.split("\t")
        site = (file, int(site_line))
        sites.add(site)
        by_location[site] = site
        if int(alt) > 0:
            by_location[(file, int(alt))] = site
    return by_location, sites


def history_workload(run, tools, seed, seconds, trace):
    setups = []
    gen = None
    for k in range(SETUPS):
        out = WORK / f"history-{k}"
        remove(out)
        start = time.perf_counter()
        gen = helper_json([str(tools["perfbench"]), "gen-history", "--seed", str(seed),
                           "--scale", str(HISTORY_SCALE), "--out", rel(out)])
        setups.append(time.perf_counter() - start)
    settle([WORK / f"history-{k}" for k in range(SETUPS)])
    hist_dir = WORK / f"history-{SETUPS - 1}"
    apps = [a["name"] for a in gen["apps"]]

    sweeps = {NPROC: [], 1: []}
    rss = {NPROC: [], 1: []}
    outcomes = {app: [] for app in apps}  # (exit code as expected, CSV digest)

    def sweep(jobs):
        total = 0.0
        peak = 0.0
        for app in apps:
            out = WORK / f"history-{app}-{jobs}.csv"
            wall, code, maxrss = timed_child(
                [str(tools["valuecheck"]), "analyze", "--history",
                 rel(hist_dir / f"{app}.vchist"), "--format=csv", f"--jobs={jobs}"], out)
            outcomes[app].append((cli_exit_ok(code, out), digest(out)))
            total += wall
            peak = max(peak, maxrss)
        sweeps[jobs].append(total)
        rss[jobs].append(peak)

    def pair(i):
        for jobs in ((NPROC, 1) if i % 2 == 0 else (1, NPROC)):
            sweep(jobs)

    alternate(seconds, 2, pair)
    run.gate("csv_identical_across_jobs_and_runs",
             all(len({d for _, d in runs}) == 1 for runs in outcomes.values()))

    # Ground truth: the findings are exactly the sites the generator expects
    # to survive (cross-scope and not pruned), no more and no fewer.
    found_total = 0
    expected_total = 0
    exact = True
    for app in apps:
        by_location, sites = load_expected(hist_dir / f"{app}.expected")
        rows = csv_rows(WORK / f"history-{app}-{NPROC}.csv")
        matched = {by_location.get((r[0], int(r[1]))) for r in rows}
        app_exact = None not in matched and matched == sites
        exact = exact and app_exact
        found_total += len(rows)
        expected_total += len(sites)
        reference = outcomes[app][0][1]
        for exit_ok, d in outcomes[app]:
            run.op(exit_ok and d == reference and app_exact)
    run.gate("ground_truth_exact", exact, f"{found_total} findings, {expected_total} sites")
    run.notes.append(("ground truth", {
        "findings": found_total, "expected_sites": expected_total,
        "expected_real_bugs": sum(a["expected_real"] for a in gen["apps"])}))

    run.metrics.update({
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sweeps[NPROC]),
        "wall_1job_s": statistics.median(sweeps[1]),
        "peak_rss_mb": statistics.median(rss[NPROC]),
    })
    run.notes.append(("samples", {"wall_s": len(sweeps[NPROC]),
                                  "wall_1job_s": len(sweeps[1])}))
    if trace:
        cli_csv = WORK / "history-cli.csv"
        cli_csv.write_bytes(b"".join((WORK / f"history-{app}-{NPROC}.csv").read_bytes()
                                     for app in apps))
        traced_pass(run, tools, "history", seed,
                    [rel(hist_dir / f"{app}.vchist") for app in apps], cli_csv,
                    run.metrics["wall_s"], edits=3)
        load_defaults(run)
        share = run.metrics["vcs.load_history.s"] + run.metrics["core.authorship.s"]
        run.notes.append(("(vcs.load_history + core.authorship) / wall_s",
                          share / run.metrics["wall_s"]))


# --------------------------------------------------------------------------
# serve-edit


class Daemon:
    """`valuecheck serve` on a unix socket under the work dir."""

    def __init__(self, tools, socket):
        self.socket = socket
        self.proc = subprocess.Popen(
            [str(tools["valuecheck"]), "serve", "--socket", socket],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        banner = self.proc.stdout.readline()
        if "serving on" not in banner:
            self.stop()
            raise BenchError(f"daemon did not start: {banner!r}")

    def stop(self, drain_seconds=30.0):
        """SIGTERM drain, SIGKILL if it does not finish; returns (exit code,
        ru_maxrss MB). A daemon that had to be killed reports its signal."""
        if self.proc.returncode is not None:
            return self.proc.returncode, 0.0
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + drain_seconds
        pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        while pid == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        if pid == 0:
            self.proc.kill()
            _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0


def serve_workload(run, tools, seed, seconds, trace):
    setups = []
    cold_ms = []
    daemon = None
    warehouses = []
    code, peak_rss = None, 0.0
    try:
        for k in range(SETUPS):
            base = WORK / f"serve-{k}"
            remove(base)
            start = time.perf_counter()
            base.mkdir(parents=True)
            warehouses = []
            for w in range(WAREHOUSES):
                out = base / f"w{w}"
                subprocess.run([str(tools["corpusgen"]), "--profile", "linux-like", "--scale",
                                "small", "--seed", str(seed * 16 + w), "--out", rel(out),
                                "--quiet"], cwd=ROOT, check=True)
                warehouses.append(rel(out))
            daemon = Daemon(tools, rel(base / "sock"))
            cold = helper_json([str(tools["perfbench"]), "serve-client", "--socket",
                                daemon.socket, "--seed", str(seed), "--jobs", str(NPROC),
                                "--cold"] + warehouses)
            setups.append(time.perf_counter() - start)
            cold_ms.extend(cold["cold_ms"])
            count_client(run, cold)
            if k < SETUPS - 1:
                code, _ = daemon.stop()
                run.gate(f"daemon_drain_{k}", code == 0, f"exit {code}")
        settle([WORK / f"serve-{k}" for k in range(SETUPS)])

        # The traced run spends its time on the open-loop rates instead; its
        # short closed loop still feeds the batch-equivalence sample.
        closed = min(seconds, 2.0) if trace else seconds
        cmd = [str(tools["perfbench"]), "serve-client", "--socket", daemon.socket,
               "--seed", str(seed), "--jobs", str(NPROC), "--closed", str(closed)]
        if trace:
            phases = [(rate, LOAD_REQUESTS) for rate in (LIGHT_RPS, HEAVY_RPS)]
            phases += [(rate, int(rate * LADDER_SECONDS)) for rate in RATE_LADDER]
            cmd += ["--open", ",".join(f"{r}:{n}" for r, n in phases)]
        client = helper_json(cmd + warehouses)
        count_client(run, client)
    finally:
        if daemon is not None:
            code, peak_rss = daemon.stop()
    run.gate("daemon_drain", code == 0, f"exit {code}")

    run.metrics.update({
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(client["closed_nproc_ms"]) / 1e3,
        "wall_1job_s": statistics.median(client["closed_one_ms"]) / 1e3,
        "peak_rss_mb": peak_rss,
    })
    run.notes.append(("samples", {"wall_s": len(client["closed_nproc_ms"]),
                                  "wall_1job_s": len(client["closed_one_ms"])}))
    if trace:
        traced_pass(run, tools, "serve", seed, [warehouses[0]], None,
                    statistics.median(cold_ms) / 1e3, edits=20)
        open_loop_metrics(run, client["open"])


def count_client(run, result):
    # A response counts as ok when its status is ok and, where it was
    # sampled, its CSV equals the in-process batch run's.
    bad = result["failed"] + result["mismatched"]
    for i in range(result["attempted"]):
        run.op(i >= bad)
    run.gate("daemon_csv_equals_batch", result["mismatched"] == 0,
             f"{result['mismatched']} of {result['verified']} differ")
    statuses = result["statuses"]
    for key in ("shed", "deadline"):
        run.metrics[f"server.{key}"] = run.metrics.get(f"server.{key}", 0) + statuses.get(key, 0)
    failed = sum(v for k, v in statuses.items() if k not in ("ok", "shed", "deadline"))
    run.metrics["server.failed"] = run.metrics.get("server.failed", 0) + failed


def open_loop_metrics(run, phases):
    light, heavy = phases[0], phases[1]
    ladder = phases[2:]
    lags = []
    for name, phase in (("light", light), ("heavy", heavy)):
        latencies = [lat if ok else float("inf")
                     for lat, ok in zip(phase["latency_ms"], phase["ok"])]
        p50, _ = tail(latencies, 0.50)
        p99, beyond = tail(latencies, 0.99)
        run.metrics[f"load.{name}_p50_ms"] = min(p50, FAILED_MS)
        run.metrics[f"load.{name}_p99_ms"] = min(p99, FAILED_MS)
        run.metrics[f"load.{name}_n"] = len(latencies)
        run.notes.append((f"{name} load", {"rate": phase["rate"], "n": len(latencies),
                                           "beyond_p99": beyond}))
        lags.extend(phase["lag_ms"])
    best = 0.0
    for phase in ladder:
        latencies = [lat if ok else float("inf")
                     for lat, ok in zip(phase["latency_ms"], phase["ok"])]
        p99, _ = tail(latencies, 0.99)
        lag = phase["lag_ms"]
        quarter = max(1, len(lag) // 4)
        growing = statistics.median(lag[-quarter:]) > max(
            LATENCY_LIMIT_MS / 2, 2 * statistics.median(lag[:quarter]))
        run.notes.append((f"ladder {phase['rate']} rps", {"p99_ms": p99, "n": len(latencies),
                                                          "backlog_growing": growing}))
        if p99 <= LATENCY_LIMIT_MS and not growing:
            best = max(best, phase["rate"])
    run.metrics["load.max_rps"] = best
    run.metrics["gen.lag_ms"], _ = tail(lags, 0.99)


# --------------------------------------------------------------------------

WORKLOADS = {
    "batch-linux-medium": batch_workload,
    "paper-history": history_workload,
    "serve-edit": serve_workload,
}

BASELINE = PERFBENCH_DIR / "baseline.json"


def recorded_digest(workload, seed):
    if not BASELINE.is_file():
        return None
    digests = json.loads(BASELINE.read_text()).get("csv_digests", {})
    return digests.get(workload, {}).get(str(seed))


def run_workload(name, tools, seed, seconds, trace, spec):
    run = Run(name)
    WORKLOADS[name](run, tools, seed, seconds, trace)
    run.metrics["ok_ratio"] = (run.attempted - run.failed) / run.attempted
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = [n for n in units if n not in run.metrics]
    if missing:
        raise BenchError(f"{name}: metrics named in BENCHMARK.json were not emitted: {missing}")
    for label, value in run.notes:
        print(f"# {name}: {label}: {json.dumps(value)}")
    print(f"{'workload':<20} {'metric':<40} {'value':>16}  unit")
    for metric in units:
        print(f"{name:<20} {metric:<40} {run.metrics[metric]:>16.6g}  {units[metric]}")
    print(f"{name:<20} gates: {json.dumps(run.gates)}")
    metrics = {n: {"value": float(run.metrics[n]), "unit": u} for n, u in units.items()}
    return run, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                             "for checking claims on inputs a change was not tuned on)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A SIGTERM unwinds through the finally blocks that stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        tools = build()
        WORK.mkdir(parents=True, exist_ok=True)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, tools, args.seed, args.seconds, bool(args.trace), spec)
                   for n in names]
    except (BenchError, OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        log(f"perfbench: {e}")
        return 2
    correct = all(run.correct for run, _ in results)
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{run.name}/{k}": v for run, m in results for k, v in m.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.attempted for run, _ in results),
        "failed": sum(run.failed for run, _ in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
