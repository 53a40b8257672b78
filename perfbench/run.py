#!/usr/bin/env python3
"""perfbench: campaign-throughput benchmark for rrb.

Run from the repository root:

    python3 perfbench/run.py --workload pwcet-load --seed 1 --seconds 10 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which builds the rrb
library from ../src) into $CARGO_TARGET_DIR or .bench_build, runs the
workload in its own process and prints two lines: a record (host,
compiler, build type, commit, every metric, unit timings) and, last, the
result object {"correct", "attempted", "failed", "metrics"}.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.

Other modes:
    --selftest          a perturbed reference digest must lower ok_frac
    --record-reference  rewrite perfbench/reference.txt at the default seed

Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ["pwcet-load", "pwcet-store", "batch-grid", "attribution"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, reference,
                 extra=()):
    """Runs one workload process; returns its stdout lines."""
    scratch = os.path.join(build_dir(), "perfbench-runs",
                           f"{workload}-seed{seed}-trace{trace}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", reference, "--scratch", scratch,
           "--commit", commit_id(), *extra]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"{workload} exited with {r.returncode}")
    return r.stdout.splitlines()


def result_of(lines):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line")
    return result


def selftest(binary):
    """ok_frac is 1 against the committed reference and drops below 1
    when one reference value of the workload is perturbed."""
    with open(REFERENCE) as f:
        lines = f.read().splitlines()
    perturbed_path = os.path.join(build_dir(), "perturbed-reference.txt")
    ok = True
    for workload in WORKLOADS:
        clean = result_of(run_workload(binary, workload, DEFAULT_SEED, 1, 0,
                                       REFERENCE))
        rows = [i for i, l in enumerate(lines)
                if l.startswith(workload + " ")]
        perturbed = list(lines)
        # Flip the last character of the workload's first digest row.
        row = perturbed[rows[0]]
        perturbed[rows[0]] = row[:-1] + ("1" if row[-1] != "1" else "2")
        with open(perturbed_path, "w") as f:
            f.write("\n".join(perturbed) + "\n")
        bad = result_of(run_workload(binary, workload, DEFAULT_SEED, 1, 0,
                                     perturbed_path))
        clean_ok = clean["metrics"]["ok_frac"]["value"]
        bad_ok = bad["metrics"]["ok_frac"]["value"]
        passed = clean_ok == 1.0 and bad_ok < 1.0 and not bad["correct"]
        ok = ok and passed
        print(f"{workload}: ok_frac {clean_ok} with the reference, "
              f"{bad_ok} with a perturbed one: "
              f"{'pass' if passed else 'FAIL'}")
    return 0 if ok else 1


def record_reference(binary):
    rows = []
    for workload in WORKLOADS:
        rows += run_workload(binary, workload, DEFAULT_SEED, 1, 0, REFERENCE,
                             extra=("--record-reference",))
    with open(REFERENCE, "w") as f:
        f.write("# perfbench reference digests at seed 1: <workload> <key> "
                "<value>\n# (doubles as IEEE-754 bit patterns). Regenerate "
                "with: python3 perfbench/run.py --record-reference\n")
        f.write("\n".join(rows) + "\n")
    log(f"wrote {len(rows)} digest rows to {REFERENCE}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.selftest or args.record_reference):
        p.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    try:
        if args.selftest:
            return selftest(binary)
        if args.record_reference:
            return record_reference(binary)
        lines = run_workload(binary, args.workload, args.seed, args.seconds,
                             args.trace, REFERENCE)
        result_of(lines)
    except (RuntimeError, ValueError, IndexError, OSError,
            subprocess.TimeoutExpired) as e:
        log(f"run failed: {e}")
        return 3
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
