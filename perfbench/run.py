#!/usr/bin/env python3
"""OA benchmark: build the `oa` program and the harness, then run one workload.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py steady --workload serve_large --runs 5

Run it from the repository root.  Everything is built from source with
`cargo --offline` into $CARGO_TARGET_DIR (default `.bench_build`); run state
(the per-run tuning cache, trace spans) lives under `.bench_build/perfbench`.
The last stdout line of a run is the result object; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build `oa` (the repository workspace) and the harness package."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "core")
    ):
        sys.exit("perfbench: the OA sources (Cargo.toml, crates/) are not next to perfbench/")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "oa-core", "--bin", "oa"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "oa"), os.path.join(release, "perfbench")


def revision():
    """The git revision, or a fingerprint of the sources outside git."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if rev.returncode == 0 and rev.stdout.strip():
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--", "crates", "Cargo.lock"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            return rev.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("crates", "Cargo.lock"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def run_once(bins, workload, seed, seconds, trace, rev, echo=True):
    oa, bench = bins
    cmd = [
        bench, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--oa", oa, "--state", os.path.join(target_dir(), "perfbench"), "--rev", rev,
        "--manifest", os.path.join(ROOT, "BENCHMARK.json"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode, None, None
    lines = done.stdout.strip().splitlines()
    prov = next((json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance ")), None)
    return 0, (json.loads(lines[-1]) if lines else None), prov


def steady(bins, args, rev):
    """Run one workload N times and compare each metric's spread with its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    seconds = manifest["run_seconds"]
    values = {}
    for i in range(args.runs):
        seed = i + 1
        code, result, prov = run_once(bins, args.workload, seed, seconds, 0, rev, echo=False)
        if code != 0 or result is None:
            sys.exit("perfbench: run with seed %d failed" % seed)
        if not result["correct"]:
            print("seed %d: output check FAILED (%d of %d)" % (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        host = " ".join("%.1f" % v for v in (prov or {}).get("host_loop_ms", []))
        print("seed %d: %s host_loop_ms=%s" % (
            seed, " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()), host))
        sys.stdout.flush()
    print("\n%s, %d runs of %d s, rev %s" % (args.workload, args.runs, seconds, rev))
    print("%-24s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    over = 0
    for m in manifest["end_to_end"]:
        v = values.get(m["name"], [])
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if spread > m["bound"]:
            flag = "  OVER BOUND"
            over += 1
        elif spread > m["bound"] / 3:
            flag = "  over a third of bound"
        print("%-24s %12.5g %12.5g %12.5g %8.3f %6.2f%s" % (m["name"], q1, med, q3, spread, m["bound"], flag))
    return 1 if over else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        p.add_argument("mode")
        p.add_argument("--workload", required=True)
        p.add_argument("--runs", type=int, default=10)
        args = p.parse_args()
        bins = build()
        return steady(bins, args, revision())
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bins = build()
    code, _, _ = run_once(bins, args.workload, args.seed, args.seconds, args.trace, revision())
    return code


if __name__ == "__main__":
    sys.exit(main())
