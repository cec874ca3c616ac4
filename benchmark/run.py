#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, named metrics.

    python3 benchmark/run.py                       # every workload, end to end
    python3 benchmark/run.py --trace 1             # every workload, per layer
    python3 benchmark/run.py --workload sessions_bulk --seed 7 --seconds 20
    python3 benchmark/run.py --aa                  # two sets back to back
    python3 benchmark/run.py --quick               # smoke run (benchmark/check.sh)
    python3 benchmark/run.py --update-golden       # rewrite benchmark/golden/

Builds `repro` and the driver crate offline, runs the workload(s), checks
their outputs, prints every metric of BENCHMARK.json by name with its unit,
and ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero when an output differs or an operation fails. Standard
library only. See benchmark/README.md for what each number means.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden")
DEFAULT_SEED = 2026
MIN_PASSES = 2
SETUP_REPS = 5

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The two workloads that are `repro` child processes. `sessions` is exact
# (the ledger's sim_sessions, checked on every traced run); `warm` is the
# scaled-down command each set-up repetition runs.
CLI = {
    "figures_all": {
        "sessions": 463,
        "args": lambda seed, tmp: ["all", "--seed", str(seed), "--jobs", "2", "--csv", tmp],
        "warm": lambda seed, tmp: ["table1", "--seed", str(seed), "--jobs", "2", "--csv", tmp],
        "quick": lambda seed, tmp: ["all", "--seed", str(seed), "--jobs", "2", "--csv", tmp, "--n", "2"],
    },
    "campaign_1m": {
        "sessions": 384,
        "args": lambda seed, tmp: ["campaign", "--viewers", "1000000", "--seed", str(seed), "--jobs", "1"],
        "warm": lambda seed, tmp: ["campaign", "--viewers", "1000000", "--seed", str(seed), "--jobs", "1",
                                   "--ledger", tmp, "--max-shards", "1"],
        "quick": lambda seed, tmp: ["campaign", "--viewers", "128000", "--seed", str(seed), "--jobs", "1"],
    },
}
FIGURE_IDS = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
              "fig12", "table1", "table2", "model-agg", "model-waste", "ext-stalls", "ext-sack", "ext-cc",
              "ext-m3", "ext-agg-pkt", "ext-qoe"]


# ---------------------------------------------------------------- statistics

def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def describe(xs):
    q1, q2, q3 = quartiles(xs)
    return "median %.4f  q1 %.4f  q3 %.4f  min %.4f  max %.4f  n %d" % (q2, q1, q3, min(xs), max(xs), len(xs))


def undisturbed(slices_by_pass):
    """Sum over slices of each slice's fastest pass.

    Host noise on the shared reference host is one-sided and comes in bursts
    of a second or more, so no whole pass runs clean, but every short slice
    of it does in some pass. A workload that cannot be sliced (a child
    process) passes one slice per pass and gets its fastest pass.
    """
    return sum(min(col) for col in zip(*slices_by_pass))


# ------------------------------------------------------------------ building

def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(OUT, "build"))


def build():
    """Builds `repro` and the driver, offline, into one target directory."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cwd, extra in ((ROOT, ["--bin", "repro"]), (os.path.join(HERE, "driver"), [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("benchmark: build failed: %s (in %s)" % (" ".join(cmd), cwd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "repro"), os.path.join(release, "driver")


# ------------------------------------------------------------------- running

class Spans:
    """Spans of one run: (id, parent, name, start, end), kept in memory."""

    def __init__(self, workload):
        self.workload = workload
        self.origin = time.monotonic_ns()
        self.spans = []
        self.open = []

    def enter(self, name):
        self.spans.append({"id": len(self.spans), "parent": self.open[-1] if self.open else None,
                           "name": name, "workload": self.workload,
                           "start_ns": time.monotonic_ns() - self.origin, "end_ns": None})
        self.open.append(len(self.spans) - 1)

    def exit(self):
        span = self.spans[self.open.pop()]
        span["end_ns"] = time.monotonic_ns() - self.origin

    def adopt(self, child_spans, started_ns):
        """Grafts a child process's spans under the innermost open span."""
        base = len(self.spans)
        parent = self.open[-1] if self.open else None
        for s in child_spans:
            self.spans.append({"id": base + s["id"],
                               "parent": parent if s["parent"] is None else base + s["parent"],
                               "name": s["name"], "workload": self.workload,
                               "start_ns": started_ns - self.origin + s["start_ns"],
                               "end_ns": started_ns - self.origin + s["end_ns"]})

    def write(self):
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "trace-%s.json" % self.workload)
        with open(path, "w") as f:
            json.dump({"workload": self.workload, "spans": self.spans}, f)
        return path


def vm_hwm_mb(pid):
    """A live process's peak resident set (VmHWM), or None once it is gone."""
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def run_child(argv, pin=None):
    """Runs a child to completion: wall seconds, exit status, output, CPU
    seconds and peak RSS (MB).

    `pin` keeps a single-threaded child from being stuck on one vCPU: on the
    shared reference host each vCPU drops into a slow mode (x1.3 to x1.55)
    for up to a minute, independently of the other. An integer pins the
    child to that one of the allowed CPUs; "alternate" moves it to the next
    one every 0.37 s (longer than a timed slice, out of step with a pass),
    so every slice is timed on each CPU in some pass.

    wait4's ru_maxrss is no use for the peak: it is not reset by exec, so it
    never reads below this interpreter's own resident set (about 19 MB, more
    than `repro campaign` needs). VmHWM belongs to the new image alone but
    vanishes with the process, so a thread polls it while the child runs;
    it only grows, so the last reading is the peak up to the final 10 ms.
    """
    cpus = sorted(os.sched_getaffinity(0))
    started = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    peak = [0.0]

    def watch():
        turn = pin if isinstance(pin, int) else 0
        polls = 0
        while True:
            if pin is not None and polls % 37 == 0 and (polls == 0 or pin == "alternate"):
                try:
                    os.sched_setaffinity(child.pid, {cpus[turn % len(cpus)]})
                except OSError:
                    return
                turn += 1
            mb = vm_hwm_mb(child.pid)
            if mb is None:
                return
            peak[0] = mb
            polls += 1
            time.sleep(0.01)

    watcher = threading.Thread(target=watch)
    watcher.start()
    out, err = child.stdout.read(), child.stderr.read()
    _, status, ru = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    watcher.join()
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    child.stderr.close()
    return {"wall_s": wall, "rc": child.returncode, "stdout": out.decode(), "stderr": err.decode(),
            "rss_mb": peak[0], "cpu_s": ru.ru_utime + ru.ru_stime}


def run_driver(argv, pin=None):
    """Runs the driver; returns the child record and its JSON result line."""
    child = run_child(argv, pin=pin)
    if child["rc"] != 0:
        sys.exit("benchmark: driver failed (%d):\n%s" % (child["rc"], child["stderr"]))
    return child, json.loads(child["stdout"].strip().splitlines()[-1])


def fresh_dir(*parts):
    path = os.path.join(OUT, "tmp", *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def digest(data):
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def cli_manifest(name, tmp, stdout):
    """What a CLI pass produced, as {item: digest}: every CSV and stdout."""
    rel = os.path.relpath(tmp, ROOT)
    manifest = {"stdout": digest(stdout.replace(rel, "<csv>").replace(tmp, "<csv>").encode())}
    if name == "figures_all":
        for entry in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, entry), "rb") as f:
                manifest[entry] = digest(f.read())
    return manifest


def cli_pass(repro, name, seed, tag, extra=(), quick=False, pin=None):
    """One cold `repro` process: spawn to exit."""
    tmp = fresh_dir(name, tag)
    args = CLI[name]["quick" if quick else "args"](seed, os.path.relpath(tmp, ROOT))
    r = run_child([repro] + args + list(extra), pin=pin)
    r["manifest"] = cli_manifest(name, tmp, r["stdout"])
    r["csv_bytes"] = sum(os.path.getsize(os.path.join(tmp, e)) for e in os.listdir(tmp))
    r["gate_fail"] = name == "campaign_1m" and r["rc"] == 1 and "gate: FAIL" in r["stdout"]
    # A campaign whose cross-validation gate fails exits 1 after printing
    # its tables. At the default seed the golden pins PASS, so a FAIL there
    # is a mismatch and a failed operation; at other seeds the 384-session
    # shard's mean ratio has a sampling spread of about 0.07 against the
    # 0.10 gate, so a FAIL is an accuracy reading (model.gate_*), not a
    # fault of the run.
    r["failed"] = r["rc"] != 0 and not (r["gate_fail"] and seed != DEFAULT_SEED)
    return r


def session_manifest(digests):
    """The replies of an in-process pass, as {item: digest}."""
    return {"s%03d" % i: d for i, d in enumerate(digests)}


def golden_path(name):
    return os.path.join(GOLDEN, name + ".txt")


def read_golden(name):
    """The committed {item: digest} of a workload at the default seed."""
    try:
        with open(golden_path(name)) as f:
            return dict(line.split() for line in f if line.strip() and not line.startswith("#"))
    except FileNotFoundError:
        return None


def golden_for(name, seed, opts):
    """The golden a run is held to: default seed, full size only."""
    return read_golden(name) if seed == DEFAULT_SEED and not opts.quick else None


def write_golden(name, manifest):
    os.makedirs(GOLDEN, exist_ok=True)
    with open(golden_path(name), "w") as f:
        f.write("# %s at seed %d: item digest (run.py --update-golden)\n" % (name, DEFAULT_SEED))
        for key in sorted(manifest):
            f.write("%s %s\n" % (key, manifest[key]))


def mismatches(manifests, golden):
    """Passes whose output differs from the first pass, plus from the golden."""
    differing = [k for k, m in enumerate(manifests[1:], 1) if m != manifests[0]]
    notes = ["pass %d differs from pass 0" % k for k in differing]
    count = len(differing)
    if golden is not None and manifests[0] != golden:
        keys = sorted(k for k in set(golden) | set(manifests[0]) if golden.get(k) != manifests[0].get(k))
        notes.append("differs from golden in: " + ", ".join(keys[:8]))
        count += 1
    return count, notes


# --------------------------------------------------------------- end to end

def end_to_end(bins, name, seed, seconds, opts):
    """The untraced run of one workload: set-up, then timed passes."""
    repro, driver = bins
    quick = opts.quick
    min_passes = 1 if quick else MIN_PASSES
    setup_reps = 1 if quick else SETUP_REPS
    notes = []
    if name in CLI:
        setup_s = []
        for rep in range(setup_reps):
            started = time.perf_counter()
            tmp = fresh_dir(name, "warm")
            warm = run_child([repro] + CLI[name]["warm"](seed, os.path.relpath(tmp, ROOT)))
            setup_s.append(time.perf_counter() - started)
            if warm["rc"] != 0:
                notes.append("warm-up exited %d" % warm["rc"])
        passes = []
        measured = 0.0
        while len(passes) < min_passes or measured < seconds:
            # The single-threaded campaign takes the CPUs in turn, pass by
            # pass; `repro all --jobs 2` needs both at once.
            pin = len(passes) if name == "campaign_1m" else None
            p = cli_pass(repro, name, seed, "pass", quick=quick, pin=pin)
            measured += p["wall_s"]
            passes.append(p)
        sessions = CLI[name]["sessions"]
        slices = [[p["wall_s"]] for p in passes]
        manifests = [p["manifest"] for p in passes]
        rss_mb = statistics.median(p["rss_mb"] for p in passes)
        attempted = len(passes)
        failed = sum(p["failed"] for p in passes)
        notes += ["pass %d exited %d" % (k, p["rc"]) for k, p in enumerate(passes) if p["failed"]]
        notes += ["gate FAIL at held-out seed %d (accuracy reading, not a fault)" % seed
                  for p in passes[:1] if p["gate_fail"] and not p["failed"]]
    else:
        argv = [driver, "passes", "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
        if quick:
            argv += ["--per-cell", "1", "--min-passes", "1"]
        child, raw = run_driver(argv, pin="alternate")
        setup_s = raw["setup_s"]
        slices = raw["slice_s"]
        sessions = raw["sessions"]
        manifests = [session_manifest(pass_digests) for pass_digests in raw["digests"]]
        rss_mb = child["rss_mb"]
        attempted = sessions * len(slices)
        failed = raw["failed"]
        if failed:
            notes.append("%d None replies for valid matrix cells" % failed)

    if opts.update_golden and seed == DEFAULT_SEED and not quick:
        write_golden(name, manifests[0])
    golden = golden_for(name, seed, opts)
    mismatched, why = mismatches(manifests, golden)
    notes += why

    pass_s = [sum(s) for s in slices]
    wall_s = undisturbed(slices)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall_s,
        "sessions_per_s": sessions / wall_s,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "pass_wall_s": describe(pass_s),
        "setup_s": describe(setup_s),
        "sessions": sessions,
        "output_mismatches": mismatched,
        "failed_share": failed / attempted,
        "golden": "checked" if golden is not None else "not applicable (held-out seed, quick run or no golden)",
    }
    return {"correct": mismatched == 0 and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail, "notes": notes}


# ---------------------------------------------------------------- per layer

def read_ledger(path):
    """A `--metrics` ledger as flat {name: value} plus its spans."""
    with open(path) as f:
        ledger = json.load(f)
    return parse_ledger(ledger)


def parse_ledger(ledger):
    flat = dict(ledger["counters"])
    flat.update(ledger["gauges"])
    spans = {s["name"]: s for s in ledger["spans"]}
    return flat, spans


# Ledger slots that depend on the execution (worker layout, cache setting),
# not on the simulated sessions; everything else must repeat exactly.
EXECUTION_DEPENDENT = {"sim_scratch_reuse_hits", "capture_trace_regrows", "cache_hits", "cache_misses",
                       "cache_bytes_retained", "peak_trace_bytes", "peak_flowstate_bytes"}


def ledger_differences(a, b):
    return sorted(k for k in set(a) | set(b) if k not in EXECUTION_DEPENDENT and a.get(k) != b.get(k))


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(bins, name, seed, seconds, opts):
    """The traced run: ledger counts, driver probes, derived estimates."""
    repro, driver = bins
    spans = Spans(name)
    spans.enter("traced:" + name)
    notes = []
    m = {metric["name"]: 0.0 for metric in SPEC["per_layer"]}
    failed = 0
    attempted = 0
    mismatched = 0

    # The `repro` CLI itself: start-up cost.
    spans.enter("bench.startup")
    startup = [run_child([repro, "--help"])["wall_s"] for _ in range(5)]
    spans.exit()
    m["bench.startup_ms"] = statistics.median(startup) * 1e3

    untraced_wall = None
    traced_wall = None
    stdout = ""
    if name in CLI:
        ledgers = []
        # U: telemetry off. A: metered, same --jobs. B: metered at the other
        # --jobs value — outputs and every simulated count must match A.
        other_jobs = ["--jobs", "1" if name == "figures_all" else "2"]
        results = []
        for tag, jobs in (("untraced", []), ("metered", []), ("metered-other-jobs", other_jobs)):
            ledger_path = os.path.join(OUT, "ledger-%s-%s.json" % (name, tag))
            extra = [] if tag == "untraced" else ["--metrics", ledger_path] + jobs
            spans.enter("pass:" + tag)
            p = cli_pass(repro, name, seed, tag, extra=extra, quick=opts.quick)
            spans.exit()
            results.append(p)
            attempted += 1
            failed += p["failed"]
            if extra:
                ledgers.append(read_ledger(ledger_path))
        untraced, metered = results[0], results[1]
        untraced_wall, traced_wall = untraced["wall_s"], metered["wall_s"]
        stdout = untraced["stdout"]
        mismatched, why = mismatches([p["manifest"] for p in results], golden_for(name, seed, opts))
        notes += why
        counts, figure_spans = ledgers[0]
        diff = ledger_differences(ledgers[0][0], ledgers[1][0])
        if diff:
            mismatched += 1
            notes.append("ledger counts differ across --jobs: " + ", ".join(diff[:8]))
        m["bench.cpu_s"] = untraced["cpu_s"]
        m["bench.csv_bytes"] = untraced["csv_bytes"]
        expected = CLI[name]["sessions"]
        if not opts.quick and counts["sim_sessions"] != expected:
            mismatched += 1
            notes.append("ledger has %d sessions, the workload is defined as %d" % (counts["sim_sessions"], expected))

    # The per-figure spans describe the `repro` CLI, like its start-up cost,
    # and are read in every traced run: from this workload's own metered pass
    # when it is `repro all`, from one extra metered `repro all` otherwise.
    if name != "figures_all":
        ledger_path = os.path.join(OUT, "ledger-%s-figures.json" % name)
        spans.enter("pass:figure-spans")
        p = cli_pass(repro, "figures_all", seed, "figure-spans", extra=["--metrics", ledger_path], quick=opts.quick)
        spans.exit()
        attempted += 1
        failed += p["failed"]
        _, figure_spans = read_ledger(ledger_path)
    for fig in FIGURE_IDS:
        m["core.figure_ms." + fig] = figure_spans[fig]["wall_ns"] / 1e6

    # The driver: probes for every workload, and for the in-process ones the
    # untraced/metered/flight/engine passes as well.
    argv = [driver, "traced", "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--out", OUT]
    if opts.quick:
        argv += ["--per-cell", "1"]
    spans.enter("driver")
    started_ns = time.monotonic_ns()
    child, raw = run_driver(argv)
    spans.adopt(raw["spans"], started_ns)
    spans.exit()
    m.update(raw["unit"])
    sample = raw["sample"]

    if name not in CLI:
        counts, _ = parse_ledger(raw["ledger"])
        untraced_wall, traced_wall = raw["untraced_s"], raw["metered_s"]
        attempted += raw["sessions"]
        failed += raw["failed"]
        if raw["ledger_differences"]:
            mismatched += 1
            notes.append("ledger counts differ between two metered passes: " + ", ".join(raw["ledger_differences"][:8]))
        if raw["digest_mismatches"]:
            mismatched += raw["digest_mismatches"]
            notes.append("%d replies differ between the untraced, metered, flight and jobs-2 passes" % raw["digest_mismatches"])
        if golden_for(name, seed, opts) not in (None, session_manifest(raw["session_digests"])):
            mismatched += 1
            notes.append("replies differ from golden")
        m["bench.cpu_s"] = child["cpu_s"]

    events = counts["sim_events_scheduled"]
    sent = counts["net_packets_delivered"] + counts["net_queue_drops"] + counts["net_random_drops"]
    segments = counts["tcp_data_segments_sent"] + counts["tcp_retx_segments"] + counts["tcp_acks_sent"]
    tapped = counts["capture_packets"]
    sessions = counts["sim_sessions"]
    engine_ns = m["app.engine_ns_per_event"]
    m.update({
        "sim.events": events,
        "sim.wheel_spill_ratio": ratio(counts["sim_wheel_spill_pushes"], events),
        "sim.queue_peak_len": counts["sim_queue_peak_len"],
        "net.packets": counts["net_packets_delivered"],
        "net.bytes": counts["net_bytes_delivered"],
        "net.drop_ratio": ratio(counts["net_queue_drops"] + counts["net_random_drops"], sent),
        "net.down_backlog_hwm_bytes": counts["net_down_backlog_hwm_bytes"],
        "tcp.data_segments": counts["tcp_data_segments_sent"],
        "tcp.acks": counts["tcp_acks_sent"],
        "tcp.connections": counts["tcp_connections"],
        "tcp.retx_ratio": ratio(counts["tcp_retx_segments"], counts["tcp_data_segments_sent"]),
        "tcp.rto_fires": counts["tcp_rto_fires"],
        "tcp.fast_retransmits": counts["tcp_fast_retransmits"],
        "tcp.zero_window_probes": counts["tcp_zero_window_probes"],
        "app.blocks": counts["app_blocks"],
        "app.player_stalls": counts["app_player_stalls"],
        "capture.tapped_packets": tapped,
        "capture.trace_regrows": counts["capture_trace_regrows"],
        "analysis.flowstate_peak_bytes": counts["peak_flowstate_bytes"],
        "core.cache_hits": counts["cache_hits"],
        "core.cache_misses": counts["cache_misses"],
        "core.cache_bytes_retained": counts["cache_bytes_retained"],
        "core.peak_trace_bytes": counts["peak_trace_bytes"],
    })
    # Estimated busy time = count x unit cost. The engine's share is split
    # into the three layers the probes price and a residual (event loop,
    # strategy logic, player), so the four sum to app.engine_s by
    # construction.
    engine_s = events * engine_ns / 1e9
    layers_ns = (m["sim.queue_ns_per_event"] * events + m["net.link_ns_per_packet"] * sent
                 + m["tcp.endpoint_ns_per_segment"] * segments)
    m["app.engine_s"] = engine_s
    m["sim.events_per_s"] = ratio(events, engine_s)
    m["app.residual_ns_per_event"] = engine_ns - ratio(layers_ns, events)
    m["bench.trace_overhead_ratio"] = ratio(traced_wall, untraced_wall)

    match = re.search(r"(\d+)/\d+ cells match", stdout)
    if match:
        m["core.table1_cells_matched"] = int(match.group(1))
    match = re.search(r"Capacity plan, (\d+) packet-calibrated", stdout)
    if match:
        m["core.campaign_packet_sessions"] = int(match.group(1))
    match = re.search(r"mean ratio ([0-9.]+) within .*var ratio ([0-9.]+) within", stdout)
    if match:
        m["model.gate_mean_ratio"] = float(match.group(1))
        m["model.gate_var_ratio"] = float(match.group(2))

    capture_s = tapped * m["capture.record_ns_per_packet"] / 1e9
    analysis_s = (tapped * m["analysis.fold_ns_per_packet"] + sessions * m["analysis.finish_us_per_session"] * 1e3) / 1e9
    detail = {
        "untraced_pass_s": untraced_wall,
        "estimate.sim_s": m["sim.queue_ns_per_event"] * events / 1e9,
        "estimate.net_s": m["net.link_ns_per_packet"] * sent / 1e9,
        "estimate.tcp_s": m["tcp.endpoint_ns_per_segment"] * segments / 1e9,
        "estimate.app_residual_s": m["app.residual_ns_per_event"] * events / 1e9,
        "estimate.capture_s": capture_s,
        "estimate.analysis_s": analysis_s,
        "probe_sample": "%d sessions, %d events" % (sample["sessions"], sample["events"]),
        "output_mismatches": mismatched,
        "failed_share": ratio(failed, attempted),
    }
    if name not in CLI:
        # One worker, no cache: busy-time estimates add up to wall time.
        # (`repro all` runs two workers over logical events, cache hits
        # included, so its estimates are CPU seconds, not comparable.)
        detail["accounted_share"] = ratio(engine_s + capture_s + analysis_s, untraced_wall)
    spans.exit()
    detail["trace_file"] = os.path.relpath(spans.write(), ROOT)
    return {"correct": mismatched == 0 and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": m, "detail": detail, "notes": notes}


# ----------------------------------------------------------------- reporting

def report(name, seed, result, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = set(units) - set(result["metrics"])
    extra = set(result["metrics"]) - set(units)
    if missing or extra:
        sys.exit("benchmark: metrics out of step with BENCHMARK.json: missing %s, undeclared %s"
                 % (sorted(missing), sorted(extra)))
    print("== %s  seed %d  %s" % (name, seed, "per layer (traced)" if trace else "end to end (telemetry off)"))
    for metric in declared:
        print("  %-36s %14.6g %s" % (metric["name"], result["metrics"][metric["name"]], metric["unit"]))
    for key, value in result["detail"].items():
        print("  . %-34s %s" % (key, "%.6g" % value if isinstance(value, float) else value))
    for note in result["notes"]:
        print("  ! " + note)
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": result["metrics"][k], "unit": units[k]} for k in units}}


def run_set(bins, names, opts):
    runner = per_layer if opts.trace else end_to_end
    return {name: runner(bins, name, opts.seed, opts.seconds, opts) for name in names}


def aa(bins, names, opts):
    """Two full sets back to back; every end-to-end metric must agree
    within its bound."""
    bounds = {metric["name"]: metric for metric in SPEC["end_to_end"]}
    first, second = run_set(bins, names, opts), run_set(bins, names, opts)
    breaches = 0
    print("== A/A  seed %d  %d s per run" % (opts.seed, opts.seconds))
    print("  %-16s %-16s %12s %12s %9s %7s" % ("workload", "metric", "A", "B", "B vs A", "bound"))
    for name in names:
        for key, metric in bounds.items():
            a, b = first[name]["metrics"][key], second[name]["metrics"][key]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            breach = worse > metric["bound"]
            breaches += breach
            print("  %-16s %-16s %12.5g %12.5g %+8.1f%% %6.0f%%%s"
                  % (name, key, a, b, 100 * (b - a) / a, 100 * metric["bound"], "  BREACH" if breach else ""))
        for which, result in (("A", first[name]), ("B", second[name])):
            if not result["correct"]:
                breaches += 1
                print("  ! %s set %s: %s" % (name, which, "; ".join(result["notes"])))
    return breaches


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help="seconds each run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    ap.add_argument("--traced", dest="trace", action="store_const", const=1, help="same as --trace 1")
    ap.add_argument("--aa", action="store_true", help="two sets back to back, compared against the bounds")
    ap.add_argument("--quick", action="store_true", help="one scaled-down pass per workload, no goldens")
    ap.add_argument("--update-golden", action="store_true", help="rewrite benchmark/golden/ (default seed only)")
    opts = ap.parse_args(argv)
    if opts.quick:
        opts.seconds = 0
    names = [opts.workload] if opts.workload else WORKLOADS
    bins = build()
    if opts.aa:
        sys.exit(1 if aa(bins, names, opts) else 0)
    ok = True
    last = None
    for name, result in run_set(bins, names, opts).items():
        last = report(name, opts.seed, result, opts.trace)
        ok = ok and last["correct"]
    # The contract's result line: the last line of stdout, one workload.
    print(json.dumps(last if len(names) == 1 else {"correct": ok, "workloads": names}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
