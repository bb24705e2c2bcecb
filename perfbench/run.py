#!/usr/bin/env python3
"""decoydb benchmark runner.

Run from the root of a decoydb checkout:

    python3 perfbench/run.py --workload paper-sim --seed 1 --seconds 20 --trace 0

It builds the Go program in this directory (perfbench/decoybench) from
the checkout's source, generates the workload's inputs from the seed,
runs the workload untraced (and, with --trace 1, again traced), checks
the outputs, and prints one JSON result as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Metric names and units come from BENCHMARK.json. README.md in
this directory explains the workloads and metrics.

Everything the benchmark writes goes under $CARGO_TARGET_DIR (default
.bench_build) in the checkout: the Go build cache, the binary, cached
generator outputs, the runs' journals and the traced runs' spans.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-sim", "tier-drain", "tier-live")
RUN_BUDGET_S = 170     # one invocation, build excluded
BUILD_BUDGET_S = 850   # the first build in a checkout compiles the stdlib
KEEP_INPUTS = 10       # generator outputs kept, most recently used first
PAPER_CAPTURE_S = 6.5  # one paper-sim capture and report on a 2-vCPU host


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die_with_parent():
    # Children must not outlive this script, even if it is killed.
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except OSError:
        pass


def go_env(bdir):
    env = dict(os.environ)
    for k, sub in (("HOME", "home"), ("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"),
                   ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp")):
        env[k] = os.path.join(bdir, sub)
        os.makedirs(env[k], exist_ok=True)
    env.update(GOPROXY="off", GOFLAGS="-mod=mod", GOTOOLCHAIN="local", GOENV="off",
               CGO_ENABLED="0")
    return env


def build(bdir):
    binary = os.path.join(bdir, "decoybench")
    proc = subprocess.run(["go", "build", "-trimpath", "-o", binary, "."], cwd=HERE,
                          env=go_env(bdir), stdout=sys.stderr, timeout=BUILD_BUDGET_S,
                          preexec_fn=die_with_parent)
    if proc.returncode != 0:
        raise RuntimeError(f"go build failed with exit code {proc.returncode}")
    return binary


class Runner:
    def __init__(self, binary, bdir, deadline):
        self.binary, self.bdir, self.deadline = binary, bdir, deadline

    def call(self, args):
        """Runs the Go program; returns its last stdout line as JSON."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("run budget exhausted")
        proc = subprocess.run([self.binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=go_env(self.bdir), timeout=left, text=True,
                              preexec_fn=die_with_parent)
        if proc.returncode != 0:
            raise RuntimeError(f"decoybench {args[0]} failed with exit code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"decoybench {args[0]} printed nothing")
        return json.loads(lines[-1])

    def inputs(self, seed):
        """Generator output for seed: corpus and pre-written journal."""
        root = os.path.join(self.bdir, "inputs")
        os.makedirs(root, exist_ok=True)
        d = os.path.join(root, f"seed-{seed}")
        meta = os.path.join(d, "gen.json")
        if not os.path.exists(meta):
            shutil.rmtree(d, ignore_errors=True)
            tmp = d + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            g = self.call(["gen", "-seed", str(seed), "-dir", tmp])
            with open(os.path.join(tmp, "gen.json"), "w") as f:
                json.dump(g, f)
            os.rename(tmp, d)
        os.utime(d)
        # Keep the most recently used few; each is ~80 MB.
        kept = sorted((os.path.join(root, n) for n in os.listdir(root)),
                      key=os.path.getmtime, reverse=True)
        for old in kept[KEEP_INPUTS:]:
            shutil.rmtree(old, ignore_errors=True)
        with open(meta) as f:
            return d, json.load(f)


def clean_runs(d):
    """Removes run directories a killed decoybench left behind."""
    for n in os.listdir(d):
        if n.startswith("run-"):
            shutil.rmtree(os.path.join(d, n), ignore_errors=True)


def mount_fs(path):
    """Filesystem type of the mount holding path."""
    path = os.path.realpath(path)
    best, fs = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                parts = line.split()
                mnt = parts[4]
                fstype = parts[parts.index("-") + 1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                    best, fs = mnt, fstype
    except OSError:
        pass
    return fs


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def med(results, name):
    vals = [r["metrics"][name] for r in results if name in r["metrics"]]
    return statistics.median(vals) if vals else None


def compare(a, b, keys):
    return [k for k in keys if a["outputs"].get(k) != b["outputs"].get(k)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bdir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(bdir, exist_ok=True)
    binary = build(bdir)
    r = Runner(binary, bdir, time.monotonic() + RUN_BUDGET_S)

    errors = []
    common = ["-workload", a.workload, "-seed", str(a.seed), "-seconds", str(a.seconds)]
    gen = None
    if a.workload == "paper-sim":
        # One capture per process (see papersim.go), about one per
        # PAPER_CAPTURE_S of --seconds. With --trace 1 the first one also
        # reads the finished capture back, for the per-layer read figures.
        untraced = []
        for i in range(max(1, int(a.seconds // PAPER_CAPTURE_S))):
            read = ["-read"] if i == 0 and a.trace else []
            untraced.append(r.call(["run"] + common + read))
        keys = ("events", "unique_ips", "logins")
        first = untraced[0]
        for other in untraced[1:]:
            diff = compare(first, other, keys + ("artefacts_sha256",))
            if diff:
                errors.append(f"paper-sim outputs differ between captures of one seed: {diff}")
    else:
        d, gen = r.inputs(a.seed)
        untraced = [r.call(["run"] + common + ["-dir", d])]
        clean_runs(d)
        keys = ("corpus_hash", "corpus_events", "journal_events", "unique_ips", "events_per_pass")
        if untraced[0]["outputs"]["corpus_hash"] != gen["hash"]:
            errors.append("corpus hash differs from the generator's")
    runs = list(untraced)

    traced = None
    if a.trace:
        spans = os.path.join(bdir, "traces", f"{a.workload}-seed{a.seed}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        extra = ["-dir", d] if gen else []
        traced = r.call(["run"] + common + extra + ["-trace", "-spans", spans])
        if gen:
            clean_runs(d)
        runs.append(traced)
        diff = compare(untraced[0], traced, keys)
        if diff:
            errors.append(f"traced run's outputs differ from the untraced run's: {diff}")

    for run in runs:
        errors += run["errors"] or []
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)

    metrics = {}
    if not a.trace:
        for m in spec["end_to_end"]:
            v = med(untraced, m["name"])
            if v is None:
                errors.append(f"metric {m['name']} was not measured")
                continue
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    else:
        base = med(untraced, "events_per_s")
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_share":
                v = 1 - traced["metrics"]["traced_events_per_s"] / base
            elif name in traced["metrics"]:
                v = traced["metrics"][name]
            else:
                # Layers only the untraced runs time (paper-sim's report and
                # read phase), else 0: the layer does no work on this workload.
                v = med(untraced, name) or 0.0
            metrics[name] = {"value": v, "unit": m["unit"]}

    prov = dict(untraced[0]["provenance"])
    prov.update(
        workload=a.workload, seed=a.seed, seconds=a.seconds, trace=a.trace,
        nproc=len(os.sched_getaffinity(0)), cpu_model=cpu_model(),
        kernel=platform.release(), processes=len(runs),
        wal_fs=mount_fs(bdir),
    )
    if gen:
        prov.update(corpus_events=gen["events"], corpus_sha256=gen["hash"])
    print("provenance " + json.dumps(prov, sort_keys=True))
    for e in errors:
        log("check failed: " + e)
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        sys.exit(1)
