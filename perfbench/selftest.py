#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of a dirsim checkout:

    python3 perfbench/selftest.py

They drive run.py the way a benchmark run does, at --size tiny:

1. every workload, untraced and traced, reports zero failed operations and
   prints exactly BENCHMARK.json's metric names and units;
2. a planted wrong expectation shows up as a failed operation, and the run
   still reports its metrics;
3. a traced run's spans nest (every child inside its parent, every self
   time >= 0), and the span checker catches hand-made faults;
4. a seed without pins is still checked: pass against pass, and
   paper_stream against an in-memory replay.
"""

import copy
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# The layer each workload loads; its traced time must not read zero.
HEAVY = {"paper_replay": "directory.shadow.busy_s",
         "paper_stream": "trace.store.scan_busy_s",
         "machine_sweep": "gen.busy_s",
         "timed_bus": "timing.busy_s"}


def invoke(*extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny",
           "--seconds", "1"] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                    proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def results_file(workload, seed, trace):
    return os.path.join(run.build_root(), "perfbench", "results",
                        "%s-tiny-seed%d-trace%d.json" % (workload, seed, trace))


def test_workloads(spec):
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = invoke("--workload", workload, "--seed", "0",
                            "--trace", str(trace))
            where = "%s trace %d" % (workload, trace)
            assert result["correct"] and result["failed"] == 0, where
            assert result["attempted"] >= 1, where
            listed = spec["per_layer" if trace else "end_to_end"]
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in listed}, where
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (where, name)
                assert math.isfinite(m["value"]), (where, name)
            if trace:
                assert result["metrics"][HEAVY[workload]]["value"] > 0, where
                with open(results_file(workload, 0, 1)) as f:
                    spans = json.load(f)["spans"]
                assert spans and run.span_problems(spans) == [], where
            print("ok   %s" % where)


def test_planted_expectation():
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    planted = copy.deepcopy(expected)
    pins = planted["paper"]["tiny"]
    name = sorted(pins)[0]
    pins[name] = "0" * len(pins[name])
    path = os.path.join(run.build_root(), "perfbench", "planted-expected.json")
    with open(path, "w") as f:
        json.dump(planted, f)
    try:
        result = invoke("--workload", "paper_replay", "--seed", "0",
                        "--expected", path)
    finally:
        os.remove(path)
    assert not result["correct"] and result["failed"] >= 1, result
    assert set(result["metrics"]) == {"run_s", "refs_per_s", "setup_s",
                                      "peak_rss_mib", "table5_err"}
    print("ok   planted wrong expectation: %d of %d operations failed"
          % (result["failed"], result["attempted"]))


def test_span_checker():
    def span(name, start, end, parent=-1, run_id=0):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "run": run_id}

    good = [span("pass", 0.0, 1.0), span("a", 0.1, 0.4, 0), span("b", 0.5, 0.9, 0)]
    assert run.span_problems(good) == []
    outside = good[:2] + [span("b", 0.5, 1.5, 0)]
    assert run.span_problems(outside)
    other_run = good[:2] + [span("b", 0.5, 0.9, 0, 1)]
    assert run.span_problems(other_run)
    overlapping = [span("pass", 0.0, 1.0), span("a", 0.0, 0.8, 0),
                   span("b", 0.2, 0.9, 0)]
    assert any("negative self time" in m for _, m in run.span_problems(overlapping))
    print("ok   span checker")


def test_unpinned_seed():
    for workload in ("paper_stream", "timed_bus"):
        result = invoke("--workload", workload, "--seed", "7")
        assert result["correct"] and result["attempted"] > 0, (workload, result)
    print("ok   seed 7 checked without pins")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    test_span_checker()
    test_workloads(spec)
    test_planted_expectation()
    test_unpinned_seed()
    print("all self-tests passed")


if __name__ == "__main__":
    main()
