#!/usr/bin/env python3
"""Serving benchmark: one workload end to end through the shipped CLI.

    python3 servebench/run.py --workload hot_point --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds san_tool (through the
repository's own CMakeLists.txt) and the two helpers
(servebench/CMakeLists.txt) into .bench_build/ (or
$CARGO_TARGET_DIR). The SANv1 network (`san_tool generate --kind gplus`)
is the benchmark's fixed data set; --seed draws the genload workload.

--trace 0  end-to-end metrics, no tracing anywhere:
           setup_s         spawn `san_tool listen` -> its `listening on`
                           line, the fastest of the workload's spawns;
           throughput_qps  `san_tool serve` (or `live`) file replay:
                           queries per second of the serving time the CLI
                           reports, ingest included on live_ingest; median
                           of the workload's replays;
           peak_rss_mb     ru_maxrss of those replays (wait4), median.
           A socket pass at the workload's fixed rate checks that the
           listen server answers byte for byte as the replay did.
--trace 1  per-layer metrics: the in-process traced replay
           (servebench_trace); a socket pass against `listen --stats-json`,
           which gives the client-observed p50/p99 at the fixed rate and
           the server's own turnaround/flush split; on hot_point the SLO
           ladder (server.slo_qps).

Every phase is checked: replay lines against the in-process reference
sample, every replay against the first, the socket stream against the
replay stream byte for byte. A mismatch, an `ERR` line, or a dropped or
missing answer is a failed operation; any failure makes the run exit 1.
The last stdout line is the JSON result. The run record (environment,
seeds, every phase's raw figures) goes to stderr and to
.bench_build/servebench/records/.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# Lanes per server process (SAN_THREADS). With the one-thread load
# generator that is three busy threads, which must fit the host.
SERVER_THREADS = 2
# A socket pass is invalid when the generator itself fell behind: its p99
# send lateness may not exceed SEND_LATE_BOUND_MS (host stalls of a few ms
# occur on shared 4-core VMs), and it must offer at least
# MIN_OFFERED_SHARE of the rate over the pass.
SEND_LATE_BOUND_MS = 10.0
MIN_OFFERED_SHARE = 0.98
# SLO ladder (hot_point): p99 limit, rungs 8% apart from LADDER_BASE_QPS
# (rung k offers LADDER_BASE_QPS * LADDER_STEP**k), LADDER_RUNG_S each.
SLO_LIMIT_MS = 25.0
LADDER_BASE_QPS = 2500.0
LADDER_STEP = 1.08
LADDER_RUNG_S = 1.5
LADDER_MAX_RUNG = 72
# A p99 needs at least 10 samples beyond it.
P99_MIN_SAMPLES = 1000
# Rate of the warm-up pass that makes the snapshot cache resident.
WARMUP_QPS = 50.0

POINT_MIX = "linkrec:40,attrs:15,ego:15,recip:10"
# The network is the benchmark's fixed data set; --seed draws the traffic.
# Networks from different generator seeds differ in serving cost by up to
# a quarter at equal size, which would swamp the run-to-run spread.
NETWORK_SEED = 1

# Why each workload exists is in servebench/README.md. The socket rates
# stay fixed so later commits are compared at equal offered load:
# hot_point 10k q/s, cold_mix 100 q/s, live_ingest 1500 steps/s. Arrivals
# in cold_mix and live_ingest are time-ordered and the late days cost
# several times the early ones, so their rates leave the late days below
# saturation on a 4-core host.
WORKLOADS = {
    "hot_point": {
        "nodes": 60000,
        "genload": ["--queries", "100000", "--zipf", "0.8", "--mix",
                    POINT_MIX, "--horizon", "7", "--now", "0"],
        # genload floors arrivals in [0, 7) to days 0-6; the last week
        # (92-98) is where the network exists, so queries execute
        # instead of answering unknown-node.
        "day_offset": 92,
        "start": None,
        "rate": 10000.0,
        "conns": 4,
        "socket_share": 0.3,
        "replays": 5,
        # Listen spawns for setup_s after each replay; one more serves
        # the socket pass. A 60k-node listen is up in ~0.8 s, a 20k one
        # in ~0.25 s, so the small networks take more spawns.
        "spawns_per_replay": 2,
        "warm_up_s": 1.0,
        "sample_every": 200,
        "ladder": True,
    },
    "cold_mix": {
        "nodes": 20000,
        "genload": ["--queries", "3000", "--now", "0.1"],
        "day_offset": 0,
        "start": None,
        "rate": 100.0,
        "conns": 4,
        "socket_share": 0.5,
        "replays": 3,
        "spawns_per_replay": 7,
        "sample_every": 50,
        "ladder": False,
    },
    "live_ingest": {
        "nodes": 20000,
        "genload": ["--queries", "20000", "--ingest", "0.05", "--now", "0.5",
                    "--mix", POINT_MIX],
        "day_offset": 0,
        "start": 0.0,
        "rate": 1500.0,
        "conns": 1,  # one stream keeps ingest and queries in file order
        "socket_share": 1.0,
        "replays": 7,
        "spawns_per_replay": 3,
        "sample_every": 200,
        "ladder": False,
    },
}

class BenchError(Exception):
    """The run cannot produce a valid measurement."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "servebench"


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "tools" / "san_tool.cpp").is_file():
        raise BenchError("program sources (src/, tools/san_tool.cpp) not found")
    out = build_dir() / "cmake"
    jobs = str(os.cpu_count() or 2)
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return {"san_tool": out / "san" / "san_tool",
            "servebench_loadgen": out / "servebench_loadgen",
            "servebench_trace": out / "servebench_trace"}


def server_env():
    env = dict(os.environ)
    env["SAN_THREADS"] = str(SERVER_THREADS)
    return env


def run_checked(cmd, **kwargs):
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=server_env(),
                          **kwargs)
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc


# ---- Inputs ---------------------------------------------------------------

def shift_days(text, offset):
    """Moves every numeric query time `offset` days later."""
    if offset == 0:
        return text
    out = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens and not line.startswith("#") and tokens[0] != "ingest" \
                and tokens[1] != "now":
            tokens[1] = repr(float(tokens[1]) + offset).removesuffix(".0")
            line = " ".join(tokens)
        out.append(line)
    return "\n".join(out) + "\n"


def generate_network(tools, nodes, path):
    run_checked([tools["san_tool"], "generate", "--kind", "gplus", "--nodes",
                 nodes, "--seed", NETWORK_SEED, "-o", path])


def network(tools, nodes):
    """The workload's SANv1 network: one synthetic Google+ crawl per node
    count, generated once per build directory and reused by every run."""
    path = build_dir() / "inputs" / f"gplus-{nodes}-seed{NETWORK_SEED}.san"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(f"{path.name}.{os.getpid()}.partial")
        generate_network(tools, nodes, partial)
        os.replace(partial, path)
    return path


def make_inputs(tools, name, seed, work):
    """The network and, in `work`, the workload file for (workload, seed)."""
    spec = WORKLOADS[name]
    work.mkdir(parents=True, exist_ok=True)
    workload = work / "workload.txt"
    raw = work / "genload.txt"
    run_checked([tools["san_tool"], "genload", "--nodes", spec["nodes"],
                 "--seed", seed, *spec["genload"], "-o", raw])
    workload.write_text(shift_days(raw.read_text(), spec["day_offset"]))
    raw.unlink()
    return network(tools, spec["nodes"]), workload


def workload_steps(path):
    """Non-comment, non-blank workload lines in order (what loadgen sends)."""
    steps = []
    for line in Path(path).read_text().splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            steps.append(line)
    return steps


# ---- Correctness accounting ------------------------------------------------

def expected_answers(steps, replay_lines):
    """The answer each workload step must get over the socket: its query's
    replay line, or "" for an ingest (an accepted ingest answers
    nothing)."""
    queries = sum(1 for step in steps if not step.startswith("ingest "))
    if queries != len(replay_lines):
        raise BenchError(f"replay answered {len(replay_lines)} of {queries} queries")
    answers = iter(replay_lines)
    return ["" if step.startswith("ingest ") else next(answers) for step in steps]


def count_failures(expected, got):
    """Failed operations in a response stream: every position where the
    answer differs from the expected one (an ERR line, a refused ingest, a
    dropped or missing answer, a wrong result), plus any extra lines. An
    answer that reports an unknown user is a valid answer when it is the
    expected one."""
    failures = sum(1 for e, g in zip(expected, got) if e != g)
    return failures + abs(len(expected) - len(got))


def replay_failures(lines, queries, reference):
    """Failures of one replay stream: ERR lines, missing lines, and sampled
    lines that differ from the in-process reference."""
    failures = sum(1 for line in lines if line.startswith("ERR "))
    failures += max(0, queries - len(lines))
    failures += sum(1 for i, ref in reference.items()
                    if i >= len(lines) or lines[i] != ref)
    return failures


# ---- Processes -----------------------------------------------------------

def parse_served(stderr):
    """(queries, query seconds, events, ingest seconds) from the serve/live
    summary line on stderr."""
    m = re.search(r"served (\d+) queries in ([0-9.]+) s", stderr)
    if not m:
        raise BenchError("no `served` summary from replay: " + stderr[-500:])
    ingest = re.search(r"ingested (\d+) events over \d+ batches in ([0-9.]+) s",
                       stderr)
    return (int(m.group(1)), float(m.group(2)),
            int(ingest.group(1)) if ingest else 0,
            float(ingest.group(2)) if ingest else 0.0)


class Server:
    """One `san_tool listen` process; setup_s is spawn -> `listening on`."""

    def __init__(self, tools, net, spec, stats_json=None):
        cmd = [str(tools["san_tool"]), "listen", str(net), "--cache", "8"]
        if spec["start"] is not None:
            cmd += ["--start", repr(spec["start"])]
        if stats_json is not None:
            cmd += ["--stats-json", str(stats_json)]
        begin = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True,
                                     env=server_env())
        line = self.proc.stderr.readline()
        self.setup_s = time.perf_counter() - begin
        m = re.match(r"listening on 127\.0\.0\.1:(\d+)", line)
        if not m:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("listen did not come up: " + line.strip())
        self.port = int(m.group(1))

    def stop(self):
        """SIGTERM (graceful drain), reap with wait4; returns the peak RSS
        in MiB."""
        self.proc.send_signal(signal.SIGTERM)
        tail = self.proc.stderr.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stderr.close()
        if self.proc.returncode != 0:
            raise BenchError(f"listen exited {self.proc.returncode}: {tail[-500:]}")
        return usage.ru_maxrss / 1024.0


class Socket:
    """Sends workload steps to a server through servebench_loadgen and
    checks every answer against the replay stream."""

    def __init__(self, tools, steps, replay_lines, spec, work):
        self.tools, self.steps, self.spec, self.work = tools, steps, spec, work
        self.expected = expected_answers(steps, replay_lines)
        self.attempted = self.failed = 0

    def send(self, server, indices, rate):
        """Steps `indices` (wrapping around the workload) at `rate`."""
        indices = [i % len(self.steps) for i in indices]
        path, out = self.work / "send.txt", self.work / "answers.txt"
        path.write_text("".join(self.steps[i] + "\n" for i in indices))
        proc = run_checked([self.tools["servebench_loadgen"], "--port",
                            server.port, "--workload", path, "--rate", rate,
                            "--conns", self.spec["conns"], "--out", out])
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        r["failed"] = count_failures([self.expected[i] for i in indices],
                                     out.read_text().split("\n")[:-1])
        r["failed"] += r["unmatched"]
        self.attempted += len(indices)
        self.failed += r["failed"]
        return r

    def warm_up(self, server, seconds, rate):
        """One query per distinct snapshot time, slowly, then `seconds` of
        traffic at `rate` from the end of the workload: caches, per-query
        buffers and connections reach steady state before timing."""
        first_of_time = {}
        for i, step in enumerate(self.steps):
            if not step.startswith("ingest "):
                first_of_time.setdefault(step.split()[1], i)
        self.send(server, sorted(first_of_time.values()), WARMUP_QPS)
        count = int(seconds * rate)
        self.send(server, range(len(self.steps) - count, len(self.steps)), rate)


def check_generator(result, rate, what):
    if result["send_late_p99_ms"] > SEND_LATE_BOUND_MS:
        raise BenchError(f"{what}: load generator ran late (p99 "
                         f"{result['send_late_p99_ms']:.3f} ms > bound "
                         f"{SEND_LATE_BOUND_MS} ms); latency figures invalid")
    if result["offered_qps"] < MIN_OFFERED_SHARE * rate:
        raise BenchError(f"{what}: load generator offered "
                         f"{result['offered_qps']:.0f}/s of {rate:.0f}/s")
    if result["samples"] < P99_MIN_SAMPLES:
        raise BenchError(f"{what}: {result['samples']} samples < "
                         f"{P99_MIN_SAMPLES} (p99 needs 10 beyond it);"
                         " raise --seconds")


# ---- Phases ----------------------------------------------------------------

def reference(tools, net, workload, spec):
    cmd = [tools["servebench_trace"], "reference", net, workload, "--sample",
           spec["sample_every"]]
    if spec["start"] is not None:
        cmd += ["--start", repr(spec["start"])]
    lines = run_checked(cmd).stdout.splitlines()
    env = dict(kv.split("=") for kv in lines[0].lstrip("# ").split())
    sample = {}
    for line in lines[1:]:
        index, text = line.split("\t", 1)
        sample[int(index)] = text
    return env, sample


def replay(tools, net, workload, spec, work):
    """One CLI file replay (`san_tool serve`, or `live` for a live
    workload); returns its answer lines, its summary figures and the
    kernel level it ran."""
    cmd = [tools["san_tool"], "serve" if spec["start"] is None else "live",
           net, "--workload", workload, "--cache", "8"]
    if spec["start"] is not None:
        cmd += ["--start", repr(spec["start"])]
    out_path = work / "replay.out"
    with open(out_path, "w") as out:
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out,
                                stderr=subprocess.PIPE, text=True,
                                env=server_env())
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
    if proc.returncode != 0:
        raise BenchError(f"replay exited {proc.returncode}: {stderr[-500:]}")
    served, query_s, events, ingest_s = parse_served(stderr)
    figures = {"queries": served, "query_s": query_s, "events": events,
               # The CLI reports whole milliseconds.
               "ingest_s": ingest_s, "qps": served / max(query_s + ingest_s, 1e-3),
               "rss_mb": usage.ru_maxrss / 1024.0}
    kernels = re.search(r"kernels: (\w+)", stderr).group(1)
    return out_path.read_text().split("\n")[:-1], figures, kernels


def socket_count(spec, seconds, steps):
    count = int(spec["rate"] * seconds * spec["socket_share"])
    if spec["start"] is not None:
        count = min(count, len(steps))  # ingest tips cannot repeat
    return count


def ladder(socket, server):
    """Highest rung meeting p99 <= SLO_LIMIT_MS with no backlog growth
    (the last tenth of the rung meets the limit too) and no failure: a
    doubling pass brackets it, then bisection over rungs LADDER_STEP
    apart. Each rung sends the workload steps after the previous rung's."""
    trials, first = [], 0

    def rung_ok(k):
        nonlocal first
        rate = LADDER_BASE_QPS * LADDER_STEP ** k
        count = max(P99_MIN_SAMPLES, int(rate * LADDER_RUNG_S))
        r = socket.send(server, range(first, first + count), rate)
        first += count
        ok = (r["failed"] == 0 and r["p99_ms"] <= SLO_LIMIT_MS
              and r["tail_p99_ms"] <= SLO_LIMIT_MS
              and r["send_late_p99_ms"] <= SEND_LATE_BOUND_MS)
        trials.append({"rung": k, "rate": rate, "p99_ms": r["p99_ms"],
                       "tail_p99_ms": r["tail_p99_ms"],
                       "send_late_p99_ms": r["send_late_p99_ms"], "ok": ok})
        return ok

    doubling = round(math.log(2) / math.log(LADDER_STEP))
    lo, hi = None, 0
    while hi <= LADDER_MAX_RUNG and rung_ok(hi):
        lo, hi = hi, hi + doubling
    if lo is None:
        return 0.0, trials
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rung_ok(mid):
            lo = mid
        else:
            hi = mid
    return LADDER_BASE_QPS * LADDER_STEP ** lo, trials


# ---- Metrics ---------------------------------------------------------------

def declared_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def result(metrics, units, attempted, failed):
    if set(metrics) != set(units):
        missing, extra = set(units) - set(metrics), set(metrics) - set(units)
        raise BenchError(f"metric set differs from BENCHMARK.json: missing "
                         f"{sorted(missing)}, extra {sorted(extra)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def e2e_metrics(setups, replays):
    # Spawns on a shared host land on faster or slower CPUs, and their
    # times fall into two modes 50-70% apart; the median of such a sample
    # jumps between the modes, the fastest spawn moves least between runs.
    return {"setup_s": min(setups),
            "throughput_qps": statistics.median(r["qps"] for r in replays),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in replays)}


def serve_socket(socket, server, spec, socket_steps):
    """The socket pass: warm-up where the workload has one, then the steps
    at the workload's fixed rate."""
    if spec.get("warm_up_s"):
        socket.warm_up(server, spec["warm_up_s"], spec["rate"])
    client = socket.send(server, socket_steps, spec["rate"])
    check_generator(client, spec["rate"], "socket pass")
    return client


def layer_metrics(traced, server_stats, client, slo_qps):
    m = {k: v for k, v in traced.items()
         if not k.startswith(("env.", "check."))}
    queries = server_stats.get("server.queries", 0.0)
    batches = server_stats.get("server.batches", 0.0)
    turnaround_p50_ms = server_stats.get("server.turnaround.p50_us", 0.0) / 1e3
    m.update({
        "server.batches": batches,
        "server.batch_size.mean": queries / batches if batches else 0.0,
        "server.turnaround_ms.p50": turnaround_p50_ms,
        "server.turnaround_ms.p99":
            server_stats.get("server.turnaround.p99_us", 0.0) / 1e3,
        "server.batch_flush_ms.p50":
            server_stats.get("server.batch_flush.p50_us", 0.0) / 1e3,
        "server.batch_flush_ms.p99":
            server_stats.get("server.batch_flush.p99_us", 0.0) / 1e3,
        "server.backpressure": server_stats.get("server.backpressure", 0.0),
        "server.dropped_responses":
            server_stats.get("server.dropped_responses", 0.0),
        "server.parse_errors": server_stats.get("server.parse_errors", 0.0),
        "server.slo_qps": slo_qps,
        "client.p50_ms": client["p50_ms"],
        "client.p99_ms": client["p99_ms"],
        "client.wire_ms.p50": client["p50_ms"] - turnaround_p50_ms,
        "client.send_late_ms.p99": client["send_late_p99_ms"],
        "client.samples": float(client["samples"]),
    })
    return m


# ---- Runs ------------------------------------------------------------------

def run(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    nproc = os.cpu_count() or 1
    if SERVER_THREADS + 1 > nproc:
        raise BenchError(f"{SERVER_THREADS} server lanes + 1 client thread do "
                         f"not fit nproc={nproc}")
    if spec["conns"] > nproc:
        raise BenchError(f"{spec['conns']} connections exceed nproc={nproc}")
    e2e_units, layer_units = declared_metrics()
    tools = build()
    work = build_dir() / "work" / f"{name}-{seed}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    net, workload = make_inputs(tools, name, seed, work)
    steps = workload_steps(workload)
    spec = dict(spec, ingests=sum(1 for s in steps if s.startswith("ingest ")))
    queries = len(steps) - spec["ingests"]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "nproc": nproc, "server_threads": SERVER_THREADS,
              "nodes": spec["nodes"], "queries": queries,
              "ingests": spec["ingests"], "commit": commit()}
    socket_steps = range(socket_count(spec, seconds, steps))
    if trace == 0:
        env, sample = reference(tools, net, workload, spec)
        record.update(env)
        replays, failed, attempted, first_lines = [], 0, 0, None
        setups = []
        # Listen spawns follow each replay, so replays and spawns sample
        # the whole run rather than one stretch of it.
        for _ in range(spec["replays"]):
            lines, figures, kernels = replay(tools, net, workload, spec, work)
            failed += replay_failures(lines, queries, sample)
            if first_lines is None:
                first_lines = lines
            else:
                failed += count_failures(first_lines, lines)
            attempted += figures["queries"] + spec["ingests"]
            replays.append(figures)
            for _ in range(spec["spawns_per_replay"]):
                server = Server(tools, net, spec)
                setups.append(server.setup_s)
                server.stop()
        # The last spawn serves the socket pass, which checks socket ==
        # replay byte for byte; its peak RSS goes to the run record.
        socket = Socket(tools, steps, first_lines, spec, work)
        server = Server(tools, net, spec)
        setups.append(server.setup_s)
        try:
            client = serve_socket(socket, server, spec, socket_steps)
        finally:
            listen_rss_mb = server.stop()
        metrics = e2e_metrics(setups, replays)
        record.update({"setups_s": setups, "replays": replays, "socket": client,
                       "listen_rss_mb": listen_rss_mb,
                       "simd_active_cli": kernels})
        units = e2e_units
    else:
        lines_path = work / "traced.out"
        chrome = build_dir() / "traces" / f"{name}-{seed}.json"
        chrome.parent.mkdir(parents=True, exist_ok=True)
        cmd = [tools["servebench_trace"], "trace", net, workload, "--sample",
               spec["sample_every"], "--lines", lines_path, "--chrome", chrome]
        if spec["start"] is not None:
            cmd += ["--start", repr(spec["start"])]
        traced = json.loads(run_checked(cmd).stdout.strip().splitlines()[-1])
        failed = int(traced["check.mismatches"])
        attempted = int(traced["check.queries"]) + spec["ingests"]
        socket = Socket(tools, steps, lines_path.read_text().split("\n")[:-1],
                        spec, work)
        stats_path = work / "server-stats.json"
        server = Server(tools, net, spec, stats_json=stats_path)
        try:
            client = serve_socket(socket, server, spec, socket_steps)
        finally:
            server.stop()
        slo_qps, trials = 0.0, []
        if spec["ladder"]:
            server = Server(tools, net, spec)
            try:
                socket.warm_up(server, spec["warm_up_s"], spec["rate"])
                slo_qps, trials = ladder(socket, server)
            finally:
                server.stop()
        metrics = layer_metrics(traced, json.loads(stats_path.read_text()),
                                client, slo_qps)
        record.update({k: v for k, v in traced.items()
                       if k.startswith(("env.", "check."))})
        record.update({"socket": client, "ladder": trials,
                       "chrome_trace": str(chrome.relative_to(ROOT))})
        units = layer_units
    failed += socket.failed
    attempted += socket.attempted
    record["failed_frac"] = failed / attempted

    out = result(metrics, units, attempted, failed)
    record["result"] = out
    records = build_dir() / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{name}-{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    log(json.dumps(record))
    shutil.rmtree(work, ignore_errors=True)
    return out


def commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as error:
        log(f"servebench: {error}")
        return 1
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
