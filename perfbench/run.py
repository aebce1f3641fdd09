#!/usr/bin/env python3
"""End-to-end benchmark of the simulator, the campaign engine and the
advice server.

    python3 perfbench/run.py --workload open256 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (and the libraries under
src/) with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the self-test, runs one workload, writes the
full result with host provenance to <build>/results/, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then (re)builds the perfbench target."""
    os.makedirs(bdir, exist_ok=True)
    logfile = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT_S).returncode
            if rc != 0:
                out.flush()
                with open(logfile) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                raise SystemExit(f"perfbench: build failed ({' '.join(cmd)})")
    return os.path.join(bdir, "perfbench")


def source_revision():
    """git SHA when the tree is a git checkout, plus a content digest of
    src/ and perfbench/ that identifies the code either way."""
    sha = "unknown"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            sha = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def run_binary(cmd, cwd):
    try:
        res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {' '.join(cmd)} timed out")
    sys.stderr.write(res.stderr)
    return res.returncode, res.stdout


def load_record(results_dir, workload, seed, trace, source_sha256):
    """The stored record of a run of the same code, or None."""
    path = os.path.join(results_dir, f"{workload}-seed{seed}-trace{trace}.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        record = json.load(f)
    if record["provenance"].get("source_sha256") != source_sha256:
        return None
    return record


def digest_mismatches(digests, other):
    """Units both runs ran whose output digests differ. Digests are
    "<unit> <hex>" lines; the traced and the untraced run of one seed must
    agree on every unit they share."""
    theirs = dict(d.split(" ", 1) for d in other["digests"])
    mismatches = []
    for d in digests:
        unit, value = d.split(" ", 1)
        if unit in theirs and theirs[unit] != value:
            mismatches.append(f"{unit}: {value} here, {theirs[unit]} with "
                              f"--trace {other['trace']}")
    return mismatches


def overhead_report(untraced, traced, spec):
    """Tracing overhead: the traced run's copies of the end-to-end numbers
    (trace.*) against the untraced run of the same workload and seed."""
    untraced = untraced["end_to_end"]
    report = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        key = "trace." + name
        if key in traced and untraced.get(name):
            report[name] = {
                "untraced": untraced[name],
                "traced": traced[key],
                "change": traced[key] / untraced[name] - 1.0,
            }
    return report


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    rundir = os.path.join(bdir, "run")
    results_dir = os.path.join(bdir, "results")
    os.makedirs(rundir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)

    rc, selftest_out = run_binary([binary, "--selftest"], rundir)
    selftest_ok = rc == 0
    if not selftest_ok:
        sys.stdout.write(selftest_out)

    rc, out = run_binary(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        rundir)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise SystemExit(f"perfbench: {args.workload} exited with {rc}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    kind = "per_layer" if args.trace else "end_to_end"
    measured = result[kind]
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: "
                         f"{unknown}")
    unobserved = sorted(set(declared) - set(measured))
    if kind == "end_to_end" and unobserved:
        raise SystemExit(f"perfbench: {args.workload} did not measure "
                         f"{unobserved}")
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}

    # Tracing must not change what is simulated or served: compare the
    # digests with the other mode's run of this seed, whichever ran first.
    revision = source_revision()
    other = load_record(results_dir, args.workload, args.seed,
                        1 - args.trace, revision["source_sha256"])
    errors = list(result["errors"])
    failed = int(result["failed"])
    if other is not None:
        for m in digest_mismatches(result["digests"], other):
            print(f"check failed: digest differs from the other trace mode:"
                  f" {m}")
            errors.append("trace digest mismatch " + m)
            failed += 1

    correct = bool(result["correct"]) and selftest_ok and \
        failed == int(result["failed"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "selftest_ok": selftest_ok,
        "attempted": result["attempted"],
        "failed": failed,
        "end_to_end": result["end_to_end"],
        "per_layer": result["per_layer"],
        "unobserved_layers": unobserved if args.trace else [],
        "digests": result["digests"],
        "errors": errors,
        "notes": result["notes"],
        "provenance": dict(result["provenance"], **revision),
    }
    if args.trace:
        record["tracing_overhead"] = overhead_report(
            other, result["per_layer"], spec) if other else None
        if record["tracing_overhead"]:
            for name, o in record["tracing_overhead"].items():
                print(f"tracing overhead {name}: untraced {o['untraced']:.6g}"
                      f" traced {o['traced']:.6g} ({o['change']:+.1%})")
    print("provenance " + json.dumps(record["provenance"]))
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": failed,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
