#!/usr/bin/env python3
"""dirsim benchmark: build the runner from the checkout, run one workload,
check its outputs and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dirsim checkout.  The runner (perfbench/runner.cc)
is built with CMake under $CARGO_TARGET_DIR (default .bench_build)/perfbench
on first use.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

--workload all runs every workload in turn.  --size tiny, --expected PATH
and --pin serve the self-tests (selftest.py) and re-pinning after an
intended model change; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_replay", "paper_stream", "machine_sweep", "timed_bus"]
BUILD_TYPE = "Release"  # As the repository's perf-smoke job builds.
RUNNER_TIMEOUT_S = 170
DEFAULT_SEED = 0  # Keeps the presets' own seeds; the pins are recorded here.
ENGINES = ["inval", "dir1nb", "dirinb_lanes", "dragon", "berkeley", "wti"]
ANALYSIS_CALLS = ["evaluateWorkloads", "limitedSweep", "berkeleyResults",
                  "invalWithDirectory", "invalWithDirCache",
                  "limitedWithDirCache", "invalWithFiniteCaches"]
DISCIPLINES = ["fcfs", "round-robin", "fixed-priority"]
PAPER_TABLE5 = [0.3210, 0.1466, 0.0491, 0.0336]
# The reference kernel's time (runner.cc, referenceSeconds) on the host the
# bounds were set on.  Every step is rescaled to that host speed.
REFERENCE_S = 0.0018


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    """Configure (once) and build the runner; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", str(min(4, os.cpu_count() or 1))]
    with open(log_path, "w") as log:
        for attempt in range(2):
            steps = [compile_]
            if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
                steps.insert(0, configure)
            if all(subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode == 0
                   for step in steps):
                return os.path.join(build_dir, "perfbench")
            if attempt == 0:  # A stale cache from a moved checkout: redo.
                log.flush()
                shutil.rmtree(os.path.join(build_dir, "CMakeFiles"),
                              ignore_errors=True)
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))
    fail("build failed; full log in " + log_path)


def median(values):
    return statistics.median(values) if values else 0.0


def step_sum(timings, wall=False):
    """Time of one setup or pass: each step's median over the setups or
    passes, summed.  A step is one call into a dirsim module; a slow
    moment on a shared host then costs one step its sample, not the
    whole setup or pass.  Unless wall is set, each step's wall time is
    first rescaled by REFERENCE_S over the reference kernel's time just
    before it on the same CPU: seconds at the reference host speed."""
    counts = {len(t["steps"]) for t in timings}
    if len(counts) > 1:
        fail("setups or passes ran different numbers of steps: %s" % counts)

    def seconds(t, j):
        return t["steps"][j] * (1 if wall else REFERENCE_S / t["references"][j])

    return sum(median([seconds(t, j) for t in timings])
               for j in range(counts.pop() if counts else 0))


def ratio(a, b):
    return a / b if b else 0.0


# --- Checks -----------------------------------------------------------------

def span_problems(spans):
    """Nesting faults as (span index, message): a child outside its parent,
    or a negative self time (duration minus the time its children cover)."""
    eps = 1e-9
    problems = []
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["end"] < s["start"]:
            problems.append((i, "%s ends before it starts" % s["name"]))
        p = s["parent"]
        if p < 0:
            continue
        parent = spans[p]
        if (p >= i or parent["run"] != s["run"]
                or s["start"] < parent["start"] - eps
                or s["end"] > parent["end"] + eps):
            problems.append((i, "%s not inside its parent %s"
                             % (s["name"], parent["name"])))
        covered[p] += s["end"] - s["start"]
    for i, s in enumerate(spans):
        if s["end"] - s["start"] - covered[i] < -eps:
            problems.append((i, "%s has negative self time" % s["name"]))
    return problems


def check(doc, pins):
    """Each checked result is one operation, each mismatch one failure."""
    attempted, failures = 0, []

    def compare(what, got, want):
        nonlocal attempted
        attempted += 1
        if got != want:
            failures.append("%s: got %s, expected %s" % (what, got, want))

    passes = doc["passes"]
    for p, run in enumerate(passes):
        results = run["results"]
        if pins is not None:
            reference, against = pins, "pinned"
        elif p > 0:
            reference, against = passes[0]["results"], "pass 0"
        else:
            continue
        for name in sorted(set(reference) | set(results)):
            compare("pass %d %s (vs %s)" % (p, name, against),
                    results.get(name, "missing"),
                    reference.get(name, "missing"))
        if p > 0:
            compare("pass %d refs (vs pass 0)" % p, run["refs"], passes[0]["refs"])
    for c in doc["checks"]:
        compare(c["name"], "ok" if c["ok"] else c["detail"], "ok")
    problems = {}
    for i, message in span_problems(doc["spans"]):
        problems.setdefault(i, message)
    for i in range(len(doc["spans"])):
        compare("span %d nesting" % i, problems.get(i, "ok"), "ok")
    return attempted, failures


# --- Metrics ----------------------------------------------------------------

def end_to_end(doc):
    run_s = step_sum([p for p in doc["passes"] if not p["traced"]])
    refs = doc["passes"][0]["refs"]
    return {
        "run_s": run_s,
        "refs_per_s": ratio(refs, run_s),
        "setup_s": step_sum(doc["setups"]),
        "peak_rss_mib": doc["peak_rss_mib"],
        "table5_err": doc["table5_err"],
    }


def per_layer(doc):
    runs, spans, counters = doc["runs"], doc["spans"], doc["counters"]
    kind = lambda k, traced=None: [i for i, r in enumerate(runs)
                                   if r["kind"] == k
                                   and (traced is None or r["traced"] == traced)]
    passes, setups, decompose = kind("pass", True), kind("setup"), kind("decompose")

    def busy(run, match):
        return sum(s["end"] - s["start"] for s in spans
                   if s["run"] == run and match(s["name"]))

    def named(*names):
        return lambda n: n in names

    def in_passes(match):  # Median over the traced passes.
        return median([busy(r, match) for r in passes])

    def in_setups(match):
        return median([busy(r, match) for r in setups])

    def in_decompose(match):
        return sum(busy(r, match) for r in decompose)

    def count(name, run_ids):
        return sum(c["value"] for c in counters
                   if c["name"] == name and c["run"] in run_ids)

    first_pass = passes[:1]
    pc = lambda name: count(name, first_pass)
    dc = lambda name: count(name, decompose)
    m = {}
    m["gen.busy_s"] = in_decompose(named("gen::generatePrepared",
                                         "gen::generateTrace"))
    m["gen.refs"] = dc("gen.refs")
    m["gen.refs_per_s"] = ratio(m["gen.refs"], m["gen.busy_s"])
    m["trace.prepare.busy_s"] = in_decompose(named("trace::PreparedTrace::build"))
    m["trace.column_bytes"] = (count("trace.column_bytes", setups[-1:])
                               or dc("trace.column_bytes"))
    m["trace.store.spill_busy_s"] = in_setups(named("TraceRepository::getStored"))
    m["trace.store.file_bytes"] = count("trace.store.file_bytes", setups[-1:])
    m["trace.store.scan_busy_s"] = in_decompose(
        named("trace::StoredTrace::spanCursor"))
    for c in ["hits", "misses", "builds", "disk_hits", "disk_writes"]:
        m["sim.repo." + c] = pc("sim.repo." + c)
    m["sim.repo.hit_ratio"] = ratio(m["sim.repo.hits"],
                                    m["sim.repo.hits"] + m["sim.repo.misses"])
    m["sim.replay.busy_s"] = in_decompose(named("sim::Simulator::run[fused]"))
    m["sim.replay.refs"] = dc("sim.replay.refs")
    m["sim.fused_ratio"] = ratio(
        in_decompose(named("sim::Simulator::run[inval]",
                           "sim::Simulator::run[dir1nb]",
                           "sim::Simulator::run[dragon]")),
        m["sim.replay.busy_s"])
    m["sim.cost.calls"] = sum(1 for s in spans if s["run"] in first_pass
                              and s["name"] == "sim::computeCost")
    m["sim.cost.busy_s"] = in_passes(named("sim::computeCost"))
    for e in ENGINES:
        b = in_decompose(named("sim::Simulator::run[%s]" % e,
                               "CoherenceEngine::access[%s]" % e))
        m["coherence.%s.busy_s" % e] = b
        m["coherence.%s.ns_per_ref" % e] = 1e9 * ratio(
            b, dc("coherence.%s.refs" % e))
        m["coherence.%s.blocks" % e] = dc("coherence.%s.blocks" % e)
    m["directory.shadow.busy_s"] = in_passes(named("analysis::invalWithDirectory"))
    m["directory.dircache.busy_s"] = in_passes(
        named("analysis::invalWithDirCache", "analysis::limitedWithDirCache"))
    hits, misses = pc("directory.dircache.hits"), pc("directory.dircache.misses")
    m["directory.dircache.hit_ratio"] = ratio(hits, hits + misses)
    m["directory.dircache.evictions"] = pc("directory.dircache.evictions")
    m["mem.finite.busy_s"] = in_passes(named("analysis::invalWithFiniteCaches"))
    m["mem.finite.replacement_wbs"] = pc("mem.finite.replacement_wbs")
    timed = lambda n: n.startswith("timing::TimedBusSim::run[")
    m["timing.busy_s"] = in_passes(timed)
    m["timing.self_s"] = m["timing.busy_s"] - dc("timing.engine_replay_s")
    m["timing.refs"] = pc("timing.refs")
    m["timing.ns_per_ref"] = 1e9 * ratio(m["timing.busy_s"], m["timing.refs"])
    m["timing.transactions"] = pc("timing.transactions")
    m["timing.ns_per_transaction"] = 1e9 * ratio(m["timing.busy_s"],
                                                 m["timing.transactions"])
    m["timing.makespan_cycles"] = pc("timing.makespan_cycles")
    m["timing.bus_busy_cycles"] = pc("timing.bus_busy_cycles")
    m["timing.utilization"] = ratio(m["timing.bus_busy_cycles"],
                                    m["timing.makespan_cycles"])
    m["timing.mean_queue_delay_cycles"] = pc("timing.mean_queue_delay_cycles")
    for d in DISCIPLINES:
        m["timing.%s.busy_s" % d] = in_passes(
            named("timing::TimedBusSim::run[%s]" % d))
    for call in ANALYSIS_CALLS:
        m["analysis.%s.busy_s" % call] = in_passes(named("analysis::" + call))
    m["stats.render.busy_s"] = in_passes(named("stats::render"))
    m["tracing.overhead_s"] = (
        step_sum([p for p in doc["passes"] if p["traced"]])
        - step_sum([p for p in doc["passes"] if not p["traced"]]))
    return m


# --- Run record -------------------------------------------------------------

def read_first(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def run_record(doc, build_dir):
    record = {"workload": doc["workload"], "seed": doc["seed"],
              "size": doc["size"], "traced": doc["traced"],
              "setups": len(doc["setups"]), "passes": len(doc["passes"]),
              "hardware_counters": doc["hardware_counters"]}
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    record["git_sha"] = (sha.stdout.strip() if sha.returncode == 0
                         else "unavailable (not a git checkout)")
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    record["source_sha256"] = digest.hexdigest()
    cache = {}
    for line in read_first(os.path.join(build_dir, "CMakeCache.txt"), "").splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "unknown")
    record["build_type"] = build_type
    record["cxx_flags"] = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
        "-std=c++20 -Wall -Wextra"]))
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    record["compiler"] = (version.stdout.splitlines() or ["unknown"])[0]
    model = "unknown"
    for line in read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    record["cpu_model"] = model
    record["nproc"] = len(os.sched_getaffinity(0))
    caches = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(caches)) if os.path.isdir(caches) else []:
        level = read_first(os.path.join(caches, index, "level"))
        kind = read_first(os.path.join(caches, index, "type"))
        size = read_first(os.path.join(caches, index, "size"))
        if kind == "Unified" and level in ("2", "3"):
            record["l2" if level == "2" else "llc"] = size
    return record


# --- Runner -----------------------------------------------------------------

def load_json(path):
    with open(path) as f:
        return json.load(f)


def pin_group(workload):
    # paper_stream must reproduce paper_replay, so both share one pin set.
    return "paper" if workload in ("paper_replay", "paper_stream") else workload


def run_workload(args, binary, build_dir, spec):
    data_dir = os.path.join(build_dir, "data-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--data-dir", data_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUNNER_TIMEOUT_S))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("%s: runner exited with %d" % (args.workload, proc.returncode))
    doc = json.loads(proc.stdout)

    pins = None
    if args.seed == DEFAULT_SEED and os.path.exists(args.expected):
        pins = load_json(args.expected).get(pin_group(args.workload), {}).get(args.size)
    if args.pin:
        if args.seed != DEFAULT_SEED:
            fail("--pin records the default seed %d only" % DEFAULT_SEED)
        expected = load_json(args.expected) if os.path.exists(args.expected) else {}
        expected.setdefault(pin_group(args.workload), {})[args.size] = \
            doc["passes"][0]["results"]
        with open(args.expected, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
        pins = doc["passes"][0]["results"]

    attempted, failures = check(doc, pins)
    values = per_layer(doc) if args.trace else end_to_end(doc)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(values) != sorted(m["name"] for m in listed):
        fail("metric names differ from BENCHMARK.json: %s"
             % sorted(set(values) ^ {m["name"] for m in listed}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    record = run_record(doc, build_dir)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "%s-%s-seed%d-trace%d.json"
                            % (args.workload, args.size, args.seed, args.trace))
    with open(out_path, "w") as f:
        json.dump({"record": record, "result": result, "failures": failures,
                   "table5_row": doc["table5_row"],
                   "setups": doc["setups"], "passes": [
                       {k: p[k] for k in ("seconds", "traced", "refs", "steps",
                                          "references")}
                       for p in doc["passes"]],
                   "spans": doc["spans"], "counters": doc["counters"]}, f)

    print("perfbench %s (seed %d, %s size, trace %d): %d passes, %d checks, "
          "%d failed; %s" % (args.workload, args.seed, args.size, args.trace,
                             len(doc["passes"]), attempted, len(failures),
                             out_path))
    for failure in failures[:20]:
        print("  FAILED " + failure)
    untraced = [p for p in doc["passes"] if not p["traced"]]
    print("  wall time: run %.4f s, setup %.4f s; host speed %.3f of the reference"
          % (step_sum(untraced, wall=True), step_sum(doc["setups"], wall=True),
             REFERENCE_S / median([r for p in untraced for r in p["references"]])))
    print("  Table 5 cumulative, Dir1NB WTI Dir0B Dragon: %s (paper: %s)"
          % (" ".join("%.4f" % v for v in doc["table5_row"]),
             " ".join("%.4f" % v for v in PAPER_TABLE5)))
    for name, m in metrics.items():
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    print("run record: " + json.dumps(record, sort_keys=True))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dirsim sources under %s (run from a checkout)" % ROOT, 2)
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))

    build_dir = os.path.join(build_root(), "perfbench")
    binary = build(build_dir)
    if args.workload != "all":
        print(json.dumps(run_workload(args, binary, build_dir, spec)))
        return
    failed = 0
    for workload in WORKLOADS:
        args.workload = workload
        result = run_workload(args, binary, build_dir, spec)
        failed += result["failed"]
        print(json.dumps(result))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
