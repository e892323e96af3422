#!/usr/bin/env python3
"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds the shipped binaries
(`fig2_avg_poa`, `atlas_compact`, `atlas_index`, `bnf_serve`) and the
helper in `perfbench/` from source, runs the workload and checks every
output. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones of `BENCHMARK.json`, measured by
driving the binaries as a user does. With `--trace 1` they are the
per-layer ones, taken by the helper's traced run, which calls each
crate's public functions in process. A human-readable report, the run
stamp and `failed_ratio` go to standard error and to
`perfbench/out/result-<workload>-<seed>-trace<t>.json`.
The exit code is 1 when any output is wrong and 2 on a usage, build or
environment error.

Workloads, metric definitions and the seed-state baselines are described
in `perfbench/README.md` and `perfbench/baseline.json`.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = "perfbench"
OUT_DIR = os.path.join(BENCH_DIR, "out")
# Thread budget of every workload: the sweeps, the server and the
# traced run all use two worker threads; the load comes from one process
# over two connections.
THREADS = 2
SETUP_REPEATS = 3
# sweep_cold times at least this many n=9 sweeps (about 16 s each on a
# 2-core machine) and reports their median: one sweep's wall time swung
# by about 25% from run to run on a shared host, in CPU time as much as
# in wall time, so a run that held a single sweep could not stay within
# the bounds.
MIN_COLD_SWEEPS = 2
# Connected topologies on 9 vertices (OEIS A001349): the sweeps' unit of work.
TOPOLOGIES_N9 = 261080
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """A usage, build or environment problem: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_config():
    path = "BENCHMARK.json"
    if not os.path.isfile(path):
        raise BenchError("run from the repository root: BENCHMARK.json not found")
    with open(path) as f:
        return json.load(f)


def check_checkout():
    for need in ("Cargo.toml", "Cargo.lock", "crates", os.path.join(BENCH_DIR, "Cargo.toml")):
        if not os.path.exists(need):
            raise BenchError(f"{need} is missing: this benchmark builds the repository from source")


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--bins",
         "-p", "bnf-empirics", "-p", "bnf-atlas", "-p", "bnf-serve"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ]
    for cmd in steps:
        started = time.monotonic()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850, preexec_fn=die_with_parent)
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd) + "\n" + proc.stdout[-4000:])
        log(f"built ({time.monotonic() - started:.1f} s): {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    bins = {name: os.path.join(release, name) for name in
            ("fig2_avg_poa", "atlas_compact", "atlas_index", "bnf_serve", "perfbench")}
    for path in bins.values():
        if not os.access(path, os.X_OK):
            raise BenchError(f"build produced no {path}")
    return bins


def stamp(workload, seed, trace):
    def cmd(args):
        try:
            return subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    commit = cmd(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else ""
    if not commit:
        # Checkouts without git metadata: hash the sources instead.
        h = hashlib.sha256()
        for top in ("Cargo.toml", "Cargo.lock", "src", "crates", BENCH_DIR):
            paths = [top] if os.path.isfile(top) else sorted(
                os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
            for p in paths:
                if p.startswith(OUT_DIR) or "/target/" in p:
                    continue
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
        commit = "tree-sha256:" + h.hexdigest()[:16]
    with open(os.path.join(BENCH_DIR, "baseline.json")) as f:
        held_out = json.load(f)["held_out_seed"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "held_out_seed": held_out,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": cmd(["rustc", "-V"]),
        "commit": commit,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def grid_spec(seed, salt):
    """A seeded 48-point linear grid: the values move with the seed, the
    amount of fold work does not."""
    rng = random.Random(f"{seed}:{salt}")
    return f"linear:{rng.randint(1, 8)}/8:{rng.randint(8, 64)}:48"


def die_with_parent():
    """Runs in every child before exec: the kernel sends it SIGTERM if
    this script dies first, so a killed run leaves nothing behind."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGTERM)


def run_timed(args, stdout_path, env=None):
    """Runs a child to completion; returns (wall seconds, peak RSS MiB,
    exit code). The RSS is the child's own high-water mark (wait4)."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env,
                                preexec_fn=die_with_parent)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def helper(bins, args, timeout=CHILD_TIMEOUT_S, env=None):
    """Runs the perfbench helper; returns (exit code, last JSON line)."""
    proc = subprocess.run([bins["perfbench"]] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout, env=env,
                          preexec_fn=die_with_parent)
    if proc.returncode == 2:
        raise BenchError(f"perfbench {args[0]} failed: {proc.stderr.strip()[-2000:]}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError(f"perfbench {args[0]} printed nothing: {proc.stderr.strip()[-2000:]}")
    return proc.returncode, json.loads(lines[-1]), proc.stderr


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def sweep_env():
    return dict(os.environ, BNF_MAX_N="9")


def sweep_args(bins, n, store, spec):
    return [bins["fig2_avg_poa"], "--n", str(n), "--csv", "--shards", "auto",
            "--threads", str(THREADS), "--atlas", store, "--grid", spec]


def checked_sweep(bins, tally, work, name, n, spec):
    """One cold orchestrated sweep into a fresh store, then the output
    check. Returns (wall, rss, store, csv)."""
    store = os.path.join(work, f"{name}.bnfatlas")
    csv = os.path.join(work, f"{name}.csv")
    for stale in (store, store + ".idx"):
        if os.path.exists(stale):
            os.remove(stale)
    wall, rss, code = run_timed(sweep_args(bins, n, store, spec), csv, sweep_env())
    ok = code == 0
    verdict = {}
    if ok:
        rc, verdict, _ = helper(bins, ["check", "--store", store, "--n", str(n),
                                       "--grid", spec, "--csv", csv])
        ok = rc == 0
    tally.op(ok, f"n={n} sweep {name}: exit {code}, check {verdict}")
    return wall, rss, store, csv


def sweep_metrics(walls, rsss, topologies):
    wall = statistics.median(walls)
    return {
        "graphs_per_s": topologies / wall,
        "peak_rss_mib": statistics.median(rsss),
        "latency_p50_us": wall * 1e6,
        "max_qps_under_limit": 1.0 / wall,
    }


def slowest(walls):
    """The not-gated tail figure of the sweeps: the slowest invocation."""
    return {"latency_p99_us": [max(walls) * 1e6, "us"]}


def sweep_cold(bins, seed, seconds, work, tally):
    spec = grid_spec(seed, "sweep")
    setups = []
    for k in range(SETUP_REPEATS):
        # The paper grid, whose n=8 CSV the check compares to a pinned digest.
        wall, _, _, _ = checked_sweep(bins, tally, work, f"warm{k}", 8, "paper")
        setups.append(wall)
    walls, rsss = [], []
    started = time.monotonic()
    while len(walls) < MIN_COLD_SWEEPS or time.monotonic() - started < seconds:
        wall, rss, _, _ = checked_sweep(bins, tally, work, f"cold{len(walls)}", 9, spec)
        walls.append(wall)
        rsss.append(rss)
    metrics = sweep_metrics(walls, rsss, TOPOLOGIES_N9)
    metrics["setup_s"] = statistics.median(setups)
    return metrics, {"grid": spec, "sweeps": len(walls), "sweep_walls_s": walls,
                     "reported": slowest(walls)}


def replay_warm(bins, seed, seconds, work, tally):
    spec = grid_spec(seed, "replay")
    setup, _, store, cold_csv = checked_sweep(bins, tally, work, "store", 9, spec)
    with open(cold_csv, "rb") as f:
        cold = f.read()
    walls, rsss = [], []
    args = [bins["fig2_avg_poa"], "--n", "9", "--csv", "--atlas", store, "--grid", spec]
    started = time.monotonic()
    while not walls or time.monotonic() - started < seconds:
        out = os.path.join(work, "replay.csv")
        wall, rss, code = run_timed(args, out, sweep_env())
        with open(out, "rb") as f:
            same = f.read() == cold
        tally.op(code == 0 and same, f"replay {len(walls)}: exit {code}, csv equal {same}")
        walls.append(wall)
        rsss.append(rss)
    metrics = sweep_metrics(walls, rsss, TOPOLOGIES_N9)
    metrics["setup_s"] = setup
    return metrics, {"grid": spec, "replays": len(walls), "reported": slowest(walls)}


def start_server(bins, store, log_path):
    """Starts bnf_serve on an OS-chosen port; returns (process, address)
    once it prints its listening line (after warming the paper grid)."""
    err = open(log_path, "wb")
    proc = subprocess.Popen([bins["bnf_serve"], "--atlas", store, "--addr", "127.0.0.1:0",
                             "--threads", str(THREADS)],
                            stdout=subprocess.PIPE, stderr=err, text=True,
                            preexec_fn=die_with_parent)
    err.close()
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    m = re.search(r"listening on http://(\S+)", line)
    if not m:
        stop_server(proc)
        raise BenchError(f"bnf_serve did not start: {line!r}")
    return proc, m.group(1)


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout:
        proc.stdout.close()


def proc_hwm_mib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def serve_setup(bins, work, k, tally):
    """The documented serving workflow: n=8 cold sweep, compaction,
    index, server start. Returns (seconds, append-order store, server,
    address)."""
    spec = "paper"
    started = time.monotonic()
    wall, _, store, csv = checked_sweep(bins, tally, work, f"serve{k}", 8, spec)
    check_s = time.monotonic() - started - wall
    compacted = os.path.join(work, f"serve{k}-compacted.bnfatlas")
    for args in ([bins["atlas_compact"], "--atlas", store, "--out", compacted],
                 [bins["atlas_index"], "--atlas", compacted]):
        _, _, code = run_timed(args, os.path.join(work, "setup.out"))
        tally.op(code == 0, f"{os.path.basename(args[0])} exit {code}")
    proc, addr = start_server(bins, compacted, os.path.join(work, f"serve{k}.err"))
    return time.monotonic() - started - check_s, store, proc, addr


def max_qps_under_limit(rungs, limit_us):
    """The highest rate meeting the p99 limit without a growing backlog.

    Takes the offered rate of the highest passing climbing rung (the
    reference rung's achieved rate when none passes). When the rung above
    it answered every request correctly, the limit crossing is
    interpolated on log(p99) against log(offered rate) between the two
    rungs; a pass-or-fail reading of one rung would jump by a whole rung
    step on noise. Offered, not achieved, rates: past saturation the
    achieved rate of a failing rung can fall below that of the rung
    under it.
    """
    climbing = rungs[1:]
    passing = [k for k, r in enumerate(climbing) if r["pass"]]
    if not passing:
        return rungs[0]["achieved_qps"]
    last = climbing[passing[-1]]
    if passing[-1] + 1 == len(climbing):
        return last["rate"]
    first = climbing[passing[-1] + 1]
    lo, hi = last["p99_us"], first["p99_us"]
    if first["failed"] or not 0 < lo < limit_us < hi:
        return last["rate"]
    frac = math.log(limit_us / lo) / math.log(hi / lo)
    return last["rate"] * (first["rate"] / last["rate"]) ** frac


def serve_mixed(bins, seed, seconds, work, tally):
    setups, server = [], None
    try:
        for k in range(SETUP_REPEATS):
            if server:
                stop_server(server)
                server = None
            setup, store, server, addr = serve_setup(bins, work, k, tally)
            setups.append(setup)
        _, load, _ = helper(bins, ["loadgen", "--addr", addr, "--store", store,
                                    "--seed", str(seed), "--server-pid", str(server.pid),
                                    "--seconds", f"{seconds:g}"],
                             timeout=CHILD_TIMEOUT_S)
        hwm = proc_hwm_mib(server.pid)
        alive = server.poll() is None
    finally:
        if server:
            stop_server(server)
    tally.attempted += load["attempted"]
    tally.failed += load["failed"]
    tally.notes += load["errors"]
    tally.op(alive, "bnf_serve exited during the load")
    tally.op(load["resolved"], "the ladder passed its top rung: capacity not found")
    ref = load["rungs"][0]
    metrics = {
        "setup_s": statistics.median(setups),
        "graphs_per_s": ref["records_served"] / max(ref["server_cpu_s"], 0.01),
        "peak_rss_mib": hwm,
        "latency_p50_us": ref["p50_us"],
        "max_qps_under_limit": max_qps_under_limit(load["rungs"], load["p99_limit_us"]),
    }
    # Reported but not gated in BENCHMARK.json: on a shared 2-vCPU host
    # their run-to-run spread exceeded the largest bound the benchmark may
    # set (see perfbench/README.md).
    details = {"reported": {"latency_p99_us": [ref["p99_us"], "us"],
                            "lookup_p99_us": [ref["hit_p99_us"], "us"]},
               "rungs": load["rungs"],
               "reference_rate": ref["rate"], "p99_limit_us": load["p99_limit_us"]}
    return metrics, details


def traced(bins, workload, seed, tally):
    spec = grid_spec(seed, "sweep" if workload == "sweep_cold" else "replay")
    _, result, stderr = helper(bins, ["layers", "--workload", workload, "--seed", str(seed),
                                       "--grid", spec, "--out", os.path.abspath(OUT_DIR)],
                                timeout=170, env=sweep_env())
    log(stderr.rstrip())
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    tally.notes += result["failures"]
    return result["metrics"], {"grid": spec, "self_ms": result["self_ms"]}


WORKLOADS = {"sweep_cold": sweep_cold, "replay_warm": replay_warm, "serve_mixed": serve_mixed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    try:
        config = load_config()
        if opts.workload not in WORKLOADS or opts.workload not in {
                w["name"] for w in config["workloads"]}:
            raise BenchError(f"unknown workload {opts.workload!r}")
        check_checkout()
        bins = build()
        run_stamp = stamp(opts.workload, opts.seed, opts.trace)
        os.makedirs(OUT_DIR, exist_ok=True)
        work = os.path.abspath(os.path.join(OUT_DIR, f"work-{opts.workload}-{os.getpid()}"))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        tally = Tally()
        try:
            if opts.trace:
                metrics, details = traced(bins, opts.workload, opts.seed, tally)
                wanted = config["per_layer"]
            else:
                metrics, details = WORKLOADS[opts.workload](bins, opts.seed, opts.seconds,
                                                            work, tally)
                wanted = config["end_to_end"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2

    out = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    failed_ratio = tally.failed / max(tally.attempted, 1)
    log(f"stamp: {json.dumps(run_stamp)}")
    for m in wanted:
        log(f"  {m['name']:<48} {metrics[m['name']]:>16.4f} {m['unit']}")
    for name, (value, unit) in details.get("reported", {}).items():
        log(f"  {name:<48} {value:>16.4f} {unit} (reported, not gated)")
    log(f"  {'failed_ratio':<48} {failed_ratio:>16.4f} ratio "
        f"({tally.failed} of {tally.attempted} operations)")
    for note in tally.notes[:8]:
        log(f"  wrong: {note}")
    record = {"stamp": run_stamp, "metrics": out, "failed_ratio": failed_ratio,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.notes[:32], "details": details}
    with open(os.path.join(OUT_DIR, f"result-{opts.workload}-{opts.seed}-trace{opts.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": tally.failed == 0, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": out}), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
