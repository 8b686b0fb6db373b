#!/usr/bin/env python3
"""perfbench: the Tempest benchmark.

    python3 perfbench/run.py --workload record|analyze|collect --seed N
                             --seconds S --trace 0|1

Run from the repository root. The first run configures and builds an
optimised tree (the Tempest libraries, tempest_parse, tempest-collectd and
the perfbench load generator) under $CARGO_TARGET_DIR, default
.bench_build; later runs rebuild incrementally.

Workloads (one process issues all load and never uses more threads or
connections than nproc):
  record   minimpi (2 ranks) running NPB BT with per-cell kernel regions
           on a simulated node, tempd at 4 Hz; each fresh process runs one
           pair of an uninstrumented and a recorded run, alternating which
           goes first.
  analyze  offline analysis of one seeded 4-node, 1e7-event trace: the
           streaming JSON profile at 1 and min(4, nproc) threads and the
           Perfetto export at 1 thread, each pass in a fresh process.
  collect  tempest-collectd as a child process: seeded sessions streamed
           over nproc - 1 UDS connections (closed loop) while one more
           client polls /profile and /top at a fixed rate (open loop).

Workload sizes live in the load generator (perfbench/src); each
subcommand reports them and they are recorded in the provenance line.

--trace 0 prints the end_to_end metrics of BENCHMARK.json (setup_s,
events_per_s, peak_rss_mib); the throughputs of record and analyze are
those of the fastest pass in the run. --trace 1 prints the per_layer
metrics: it spends half the budget untraced, which gives the workload's timed
figures (record.wall_s, analyze.events_per_s_par, collect.query_p50_ms,
...), and half traced, which gives span self times, counters and the
tracing overhead, and writes the spans as Chrome Trace Event JSON (open
in ui.perfetto.dev) under <build>/perfbench-out/. Every run checks its
outputs; the last stdout line is {"correct", "attempted", "failed",
"metrics"} and the exit code is non-zero when any check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
PERFBENCH = os.path.join(BUILD_DIR, "perfbench")
TEMPEST_PARSE = os.path.join(BUILD_DIR, "tools", "tempest_parse")
TEMPEST_COLLECTD = os.path.join(BUILD_DIR, "tools", "tempest-collectd")

NPROC = len(os.sched_getaffinity(0))
ANALYZE_THREADS = min(4, NPROC)


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def fastest(rates):
    """A run's throughput: that of its fastest pass. A pass is a few
    seconds of busy cores, and the speed a shared host gives it swings
    pass to pass by more than a tenth; the fastest pass of a run moves
    about half as much between runs as the median pass does."""
    return max(rates)


class Tally:
    """Operations attempted and failed, plus the failed checks' names."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, attempted, failed, what):
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed:
            self.failures.append(f"{what}: {int(failed)} of {int(attempted)} failed")

    def check(self, ok, what):
        self.ops(1, 0 if ok else 1, what)


# ------------------------------------------------------------------ build


def build():
    """Configure (once) and build; raises on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(NPROC), "--target",
                    "perfbench", "tempest_parse", "tempest_collectd_tool"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def provenance(args, sizes):
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    build_type = subprocess.run([PERFBENCH, "build-type"], capture_output=True,
                                text=True).stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "build_type": build_type,
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown",
        "source_sha256": digest.hexdigest(),
        "analysis_threads": ANALYZE_THREADS if args.workload == "analyze" else 0,
        "collector_shards": sizes.get("shards", 0),
        "sizes": sizes,
    }


def perfbench(*argv):
    """Run one perfbench subcommand; returns its JSON result."""
    cmd = [PERFBENCH] + [str(a) for a in argv]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{' '.join(cmd[:2])} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def span_self(result, name):
    span = result.get("spans", {}).get(name)
    return span["self_s"] if span else 0.0


def span_mean(results, name):
    """Mean self time per call of a span across results."""
    total = sum(r.get("spans", {}).get(name, {}).get("self_s", 0.0) for r in results)
    count = sum(r.get("spans", {}).get(name, {}).get("count", 0) for r in results)
    return total / count if count else 0.0


def trace_overhead(untraced, traced):
    """Percent by which tracing slowed the workload's main throughput."""
    return 100.0 * (untraced - traced) / untraced if untraced and traced else 0.0


# ----------------------------------------------------------------- record


def workload_record(args, work, tally, spans_files):
    sizes = {}

    def run(seconds, traced):
        """Fresh processes, one pair each, until `seconds` have passed."""
        runs = []
        deadline = time.monotonic() + seconds
        while len(runs) < 3 or time.monotonic() < deadline:
            spans = os.path.join(work, f"record-{int(traced)}-{len(runs)}.spans.json")
            first = "base" if (args.seed + len(runs)) % 2 == 0 else "session"
            r = perfbench("record", "--seed", args.seed, "--first", first,
                          "--trace", int(traced), "--work", work, "--spans", spans)
            sizes.update(r["sizes"])
            tally.ops(r["app_runs"], r["app_failed"], "BT runs (verified result)")
            tally.ops(r["checks"], r["checks_failed"], "record checks")
            for what in r["failures"]:
                log("record check failed:", what)
            if traced:
                spans_files.append(spans)
            runs.append(r)
        merged = {key: [r[key] for r in runs]
                  for key, value in runs[0].items() if isinstance(value, (int, float))}
        merged["spans"] = runs
        sizes["events"] = median(merged["events"])
        return merged

    def e2e(r):
        return {
            "setup_s": median(r["start_s"]),
            "events_per_s": fastest(e / w for e, w in zip(r["events"], r["wall_s"])),
            "peak_rss_mib": median(r["peak_rss_mib"]),
            "record.wall_s": median(r["wall_s"]),
            "record.overhead_pct": median(r["overhead_pct"]),
        }

    if not args.trace:
        return e2e(run(args.seconds, False)), sizes

    plain = e2e(run(args.seconds / 2, False))
    r = run(args.seconds / 2, True)
    m = {
        "record.wall_s": plain["record.wall_s"],
        "record.overhead_pct": plain["record.overhead_pct"],
        "core.start_s": span_mean(r["spans"], "core.start"),
        "core.events_recorded": median(r["events"]),
        "core.hook_ns_per_event": median(r["hook_ns_per_event"]),
        "core.probe_cost_ns_p50": median(r["probe_cost_ns_p50"]),
        "core.buffer_flushes": median(r["buffer_flushes"]),
        "core.stop_s": span_mean(r["spans"], "core.stop"),
        "core.tempd_cpu_s": median(r["tempd_cpu_s"]),
        "core.tempd_ticks": median(r["tempd_ticks"]),
        "core.tempd_missed_ticks": median(r["tempd_missed_ticks"]),
        "trace.write_s": span_mean(r["spans"], "trace.write"),
        "trace.write_bytes": median(r["write_bytes"]),
        "perfbench.trace_overhead_pct": trace_overhead(plain["events_per_s"],
                                                       e2e(r)["events_per_s"]),
    }
    return m, sizes


# ---------------------------------------------------------------- analyze


def load_truth(path):
    truth = {}
    with open(path) as f:
        for line in f:
            node, name, calls = line.split()
            truth[(int(node), name)] = int(calls)
    return truth


def profile_calls(path):
    with open(path) as f:
        profile = json.load(f)
    return {(n["node_id"], fn["name"]): fn["calls"]
            for n in profile["nodes"] for fn in n["functions"]}


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def workload_analyze(args, work, tally, spans_files):
    gen = perfbench("gen-analyze", "--seed", args.seed, "--out", work, "--exe", PERFBENCH)
    trace = os.path.join(work, "analyze.trace")
    # Write the ~230 MB input back now: left to the kernel, it is flushed
    # some 30 s later, in the middle of the timed passes.
    fd = os.open(trace, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    sizes = dict(gen["sizes"], trace_bytes=os.path.getsize(trace))
    truth = load_truth(os.path.join(work, "analyze.truth"))
    enters = sum(truth.values())

    # Reference output: what tempest_parse prints for the same file.
    reference = os.path.join(work, "tempest_parse.json")
    with open(reference, "w") as out:
        done = subprocess.run([TEMPEST_PARSE, "--stream", "--format", "json",
                               "--threads", "1", trace], stdout=out, timeout=170)
    tally.check(done.returncode == 0, "tempest_parse exits 0")
    want_sha = sha256_file(reference)
    tally.check(profile_calls(reference) == truth,
                "per-function calls match ground truth")

    def pass_(mode, threads, traced, check=False):
        out = os.path.join(work, f"{mode}{threads}.json")
        spans = os.path.join(work, f"{mode}{threads}-{len(spans_files)}.spans.json")
        r = perfbench("analyze", "--mode", mode, "--threads", threads, "--input", trace,
                      "--out", out, "--trace", int(traced), "--spans", spans,
                      "--seed", args.seed, "--check", int(check))
        if mode == "profile":
            tally.check(sha256_file(out) == want_sha,
                        f"profile at {threads} thread(s) is byte-identical to "
                        "tempest_parse")
        else:
            tally.check(r["spans_dropped"] == 0 and r["spans_force_closed"] == 0,
                        "export drops and force-closes no span")
            if check:
                tally.check(r["begins"] == r["ends"] == enters,
                            "Perfetto B/E records balance and cover every call")
        tally.ops(1, 0, f"{mode} pass")
        if traced:
            spans_files.append(spans)
        return r

    modes = [("profile", 1), ("profile", ANALYZE_THREADS), ("export", 1)]
    # Warm-up cycle: fills the page cache and runs the export balance check.
    for mode, threads in modes:
        pass_(mode, threads, False, check=(mode == "export"))

    def cycles(seconds, traced, timed):
        results = {m: [] for m in timed}
        deadline = time.monotonic() + seconds
        while not results[timed[-1]] or time.monotonic() < deadline:
            for m in timed:
                results[m].append(pass_(m[0], m[1], traced))
        return results

    def e2e(res):
        one = res[modes[0]]
        return {
            "setup_s": median([r["setup_s"] for r in one]),
            "events_per_s": fastest(r["events_per_s"] for r in one),
            "peak_rss_mib": median([r["peak_rss_mib"] for r in one]),
        }

    # BENCHMARK.json's end-to-end metrics all come from the 1-thread
    # profile, so untraced time goes to that pass alone: more passes,
    # steadier figures.
    if not args.trace:
        return e2e(cycles(args.seconds, False, modes[:1])), sizes

    # Throughputs from untraced passes; spans and counters from traced ones.
    untraced = cycles(args.seconds / 2, False, modes)
    plain = e2e(untraced)
    res = cycles(args.seconds / 2, True, modes)
    one, par, exp = res[modes[0]], res[modes[1]], res[modes[2]]
    m = {
        "analyze.events_per_s_par": fastest(r["events_per_s"] for r in untraced[modes[1]]),
        "export.events_per_s": fastest(r["events_per_s"] for r in untraced[modes[2]]),
        "pipeline.open_s": median([span_self(r, "pipeline.open") for r in one]),
        "pipeline.source_s": median([span_self(r, "pipeline.source") for r in one]),
        "trace.read_bytes": median([r["read_bytes"] for r in one]),
        "pipeline.align_s": median([span_self(r, "pipeline.align") for r in one]),
        "pipeline.order_check_s": median([span_self(r, "pipeline.order_check")
                                          for r in one]),
        "pipeline.batches": median([r["batches"] for r in one]),
        "parser.fold_s": median([span_self(r, "parser.batch") for r in one]),
        "parser.fold_par_s": median([span_self(r, "parser.batch") for r in par]),
        "parser.finish_s": median([span_self(r, "parser.end") for r in one]),
        "parser.functions": median([r["functions"] for r in one]),
        "parser.samples": median([r["samples"] for r in one]),
        "report.emit_s": median([span_self(r, "report.emit") for r in one]),
        "report.bytes": median([r["report_bytes"] for r in one]),
        "export.batch_s": median([span_self(r, "export.batch") for r in exp]),
        "export.end_s": median([span_self(r, "export.end") for r in exp]),
        "export.bytes": median([r["export_bytes"] for r in exp]),
        "perfbench.trace_overhead_pct": trace_overhead(plain["events_per_s"],
                                                       e2e(res)["events_per_s"]),
    }
    return m, sizes


# ---------------------------------------------------------------- collect


def tail_percentile(values):
    """Highest of p99/p95/p90/p50 with at least 10 samples beyond it."""
    n = len(values)
    for pct in (99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            ordered = sorted(values)
            return ordered[min(n - 1, int(n * pct / 100.0))], pct
    return (max(values) if values else 0.0), 100.0


def workload_collect(args, work, tally, spans_files):
    sizes = {}

    def run(seconds, traced):
        spans = os.path.join(work, f"collect-{int(traced)}.spans.json")
        r = perfbench("collect", "--seed", args.seed, "--seconds", seconds,
                      "--trace", int(traced), "--work", work, "--spans", spans,
                      "--collectd", TEMPEST_COLLECTD)
        tally.ops(r["sessions_sent"], r["sessions_failed"], "sessions streamed")
        tally.ops(r["queries"], r["queries_failed"], "queries answered 200 with JSON")
        tally.ops(r["checks"], r["checks_failed"], "collect checks")
        for what in r["failures"]:
            log("collect check failed:", what)
        if traced:
            spans_files.append(spans)
        sizes.update(r["sizes"])
        return r

    def e2e(r):
        return {
            "setup_s": median(r["setup_s"]),
            "events_per_s": median(r["events_per_s"]),
            "peak_rss_mib": median(r["peak_rss_mib"]),
        }

    def queries(r):
        tail, pct = tail_percentile(r["query_ms"])
        log(f"collect: query p50 {median(r['query_ms']):.3f} ms, p{pct:g} {tail:.3f} ms "
            f"over {len(r['query_ms'])} queries ({int(len(r['query_ms']) * (100 - pct) / 100)}"
            " beyond the tail)")
        return {
            "collect.query_p50_ms": median(r["query_ms"]),
            "collect.query_tail_ms": tail,
            "collect.query_tail_pct": pct,
            "collect.queries": len(r["query_ms"]),
        }

    if not args.trace:
        r = run(args.seconds, False)
        queries(r)
        return e2e(r), sizes

    # Timings from the untraced half: in the traced half every sender also
    # reads /metrics after each session, on the IO thread queries share.
    # Span self times and counters from the traced half.
    p = run(args.seconds / 2, False)
    plain = e2e(p)
    r = run(args.seconds / 2, True)
    m = {
        **queries(p),
        "collectd.start_s": span_mean([r], "collectd.start"),
        "collectd.send_s": median(p["send_s"]),
        "collectd.fold_lag_s": median(p["fold_lag_s"]),
        "collectd.fold_us_p50": median(r["fold_us_p50"]),
        "collectd.events_folded": median(r["events_folded"]),
        "parser.fold_s": median(r["fold_s"]),
        "parser.samples": median(r["samples_folded"]),
        "parser.functions": r["fleet_functions"],
        "collectd.sessions_folded": r["sessions_folded"],
        "collectd.sessions_aborted": r["sessions_aborted"],
        "collectd.queue_frames_max": max(r["queue_frames_max"], default=0.0),
        "collectd.query_profile_ms": median(p["query_profile_ms"]),
        "collectd.query_top_ms": median(p["query_top_ms"]),
        "loadgen.late_ms_max": max(p["late_ms"], default=0.0),
        "perfbench.trace_overhead_pct": trace_overhead(plain["events_per_s"],
                                                       e2e(r)["events_per_s"]),
    }
    return m, sizes


WORKLOADS = {"record": workload_record, "analyze": workload_analyze,
             "collect": workload_collect}


def merge_spans(files, path):
    """Concatenate the per-process span arrays into one Chrome trace."""
    events = []
    for name in files:
        if os.path.exists(name):
            with open(name) as f:
                events.extend(json.load(f))
    origin = min((e["ts"] for e in events), default=0.0)
    for e in events:
        e["ts"] = round(e["ts"] - origin, 3)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(BUILD_ROOT, f"perfbench-work-{os.getpid()}")
    os.makedirs(work)
    tally = Tally()
    spans_files = []
    try:
        raw, sizes = WORKLOADS[args.workload](args, os.path.relpath(work, ROOT),
                                              tally, spans_files)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"{args.workload} failed:", e)
        return 1
    finally:
        if args.trace and spans_files:
            trace_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
            merge_spans(spans_files, trace_path)
            log("spans written to", os.path.relpath(trace_path, ROOT))
        shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": float(raw.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    prov = provenance(args, sizes)
    for failure in tally.failures:
        log("FAILED", failure)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"provenance": prov, "result": result}, f, indent=1)
    print(json.dumps({"provenance": prov}))
    for name, m in metrics.items():
        log(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
