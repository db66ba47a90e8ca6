#!/usr/bin/env python3
"""Crowd-ML benchmark: build the harness from source, run one workload, print
every metric and every check, and end with one JSON result line.

    python3 perfbench/run.py --workload device_cycle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The harness is configured and built with CMake
under $CARGO_TARGET_DIR (default .bench_build), against the library sources in
src/. Every input derives from --seed. With --trace 0 the result carries the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the per-layer
metrics, from a traced run of --seconds/2 that follows an untraced reference run
of the same length, and the difference between the two is printed as the
tracing overhead. A failed correctness check fails the run (exit code 1).
"""
import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("device_cycle", "checkin_flood", "secagg_rounds")
RUN_BUDGET_S = 170  # every harness call of one run, after the build
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


@contextlib.contextmanager
def locked(path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(f, fcntl.LOCK_UN)


def build():
    """Configure once, then build the harness target (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    with locked(out / ".build.lock"):
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "--target", "crowdml_perfbench",
                      "-j", str(nproc())])
        for cmd in steps:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
    return out / "crowdml_perfbench"


def nproc():
    return len(os.sched_getaffinity(0))


# ---- host facts and provenance -------------------------------------------

def cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def git_facts():
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10).stdout.strip()
        return {"git_sha": sha or None, "git_dirty": bool(dirty)}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def source_digest():
    """sha256 over every file of src/ and perfbench/: provenance without git."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def filesystem_of(path):
    best, fstype = "", "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/mounts").read_text().splitlines():
            parts = line.split()
            if len(parts) >= 3 and str(path).startswith(parts[1]) and len(parts[1]) > len(best):
                best, fstype = parts[1], parts[2]
    return fstype


def fsync_probe(directory, n=32):
    """Median and max of n 4 KiB append+fsync pairs in the WAL directory (us)."""
    path = directory / "fsync_probe.bin"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    samples = []
    try:
        for _ in range(n):
            os.write(fd, b"\0" * 4096)
            t = time.perf_counter()
            os.fsync(fd)
            samples.append((time.perf_counter() - t) * 1e6)
    finally:
        os.close(fd)
        path.unlink()
    return statistics.median(samples), max(samples)


def host_facts(run_dir):
    med, mx = fsync_probe(run_dir)
    facts = {"nproc": nproc(), "cpu_model": cpu_model(),
             "wal_filesystem": filesystem_of(run_dir.resolve()),
             "fsync_probe_p50_us": round(med, 1), "fsync_probe_max_us": round(mx, 1),
             "source_digest": source_digest()}
    facts.update(git_facts())
    return facts


# ---- one harness run -----------------------------------------------------

def run_harness(binary, workload, seed, seconds, trace, run_dir, deadline):
    run_dir.mkdir(parents=True, exist_ok=True)
    report = run_dir / "report.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--dir", str(run_dir / "data"), "--report", str(report)]
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(report.read_text())


def select_metrics(report, trace):
    """The metrics BENCHMARK.json names for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in report["metrics"]]
    if missing:
        raise RuntimeError(f"harness did not report {missing}")
    return {n: report["metrics"][n] for n in names}


def print_report(title, report):
    print(f"== {title}")
    for name, m in report["metrics"].items():
        print(f"  metric {name:28s} {m['value']!r:>24} {m['unit']}")
    for c in report["checks"]:
        print(f"  check  {c['name']:28s} {'PASS' if c['ok'] else 'FAIL'}  {c['detail']}")
    info = report["info"]
    print("  info   " + ", ".join(f"{k}={v}" for k, v in info.items()))


def checks_ok(*reports):
    return all(c["ok"] for r in reports for c in r["checks"])


def run_workload(binary, workload, seed, seconds, trace, keep_spans=True):
    """Run one workload; returns (result dict, [reports])."""
    deadline = time.monotonic() + RUN_BUDGET_S
    runs = build_dir() / "runs"
    run_dir = runs / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        facts = host_facts(run_dir)
        print("== host " + ", ".join(f"{k}={v}" for k, v in facts.items()))
        if not trace:
            rep = run_harness(binary, workload, seed, seconds, False,
                              run_dir / "untraced", deadline)
            print_report(f"{workload} seed={seed} seconds={seconds} untraced", rep)
            reports, metrics_from = [rep], rep
        else:
            half = seconds / 2.0
            ref = run_harness(binary, workload, seed, half, False,
                              run_dir / "untraced", deadline)
            traced = run_harness(binary, workload, seed, half, True,
                                 run_dir / "traced", deadline)
            print_report(f"{workload} seed={seed} seconds={half} untraced reference", ref)
            print_report(f"{workload} seed={seed} seconds={half} traced", traced)
            print("== tracing overhead (traced - untraced)")
            for name, m in ref["metrics"].items():
                t = traced["metrics"].get(name)
                if t is not None and t["value"] is not None and m["value"] is not None:
                    print(f"  overhead {name:26s} {t['value'] - m['value']:+.6g} {m['unit']}")
            if keep_spans:
                src = Path(traced["info"].get("spans_file", ""))
                if src.is_file():
                    dst = build_dir() / f"spans-{workload}.jsonl"
                    shutil.move(str(src), dst)
                    print(f"  spans  {dst}")
            reports, metrics_from = [ref, traced], traced
        result = {"correct": checks_ok(*reports),
                  "attempted": int(metrics_from["attempted"]),
                  "failed": int(metrics_from["failed"]),
                  "metrics": select_metrics(metrics_from, trace)}
        return result, reports
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ---- self-test -------------------------------------------------------------

def self_test(binary, seconds):
    """Smoke-run every workload traced: every named metric is reported, every
    check passes, and the same seed reproduces the same fleet and plan."""
    ok = True
    for w in WORKLOADS:
        result, reports = run_workload(binary, w, 7, seconds, True, keep_spans=False)
        digests = {(r["info"]["fleet_digest"], r["info"]["plan_digest"]) for r in reports}
        e2e = select_metrics(reports[0], False)
        items = [("every check passes", result["correct"]),
                 ("every metric is a number", all(
                     isinstance(m["value"], (int, float))
                     for m in list(result["metrics"].values()) + list(e2e.values()))),
                 ("same seed, same fleet and plan digests", len(digests) == 1)]
        for what, good in items:
            print(f"self-test {w}: {what}: {'PASS' if good else 'FAIL'}")
            ok = ok and good
    print(f"self-test: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        binary = build()
        if args.self_test:
            return self_test(binary, args.seconds)
        result, _ = run_workload(binary, args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
