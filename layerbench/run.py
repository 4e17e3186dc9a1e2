#!/usr/bin/env python3
"""Build the allocator benchmark from source and run one workload.

Usage (from the repository root):

    python3 layerbench/run.py --workload larson-small --seed 1 --seconds 10 --trace 0
    python3 layerbench/run.py --selftest

The benchmark is a dune package of its own, layerbench/pkg. Its stanzas
use the program's private libraries, so it is built in a workspace of
its own: .bench_build/src holds the package's dune-project, a copy of
lib/ and a copy of the package sources, and dune builds it there
(release profile) into .bench_build/_build. The repository's own
`dune build` skips layerbench/pkg.

A run executes main.exe; its last stdout line is a JSON object
{"correct", "attempted", "failed", "metrics"}. This script checks that
the metric names and units are the ones BENCHMARK.json declares before
passing the line on. --selftest runs the package's tests instead.
Exit status is non-zero, with no result line, when the sources are
missing, the build fails or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join("layerbench", "pkg")
BUILD_DIR = ".bench_build"
SRC = os.path.join(ROOT, BUILD_DIR, "src")
OUT = os.path.join(ROOT, BUILD_DIR, "_build")
EXE = os.path.join(OUT, "default", "layerbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("layerbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, cwd=ROOT, env=None, capture=False):
    """Run cmd, wait for it, and kill it if it outlives timeout."""
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE if capture else sys.stderr
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def stage():
    """Lay out .bench_build/src: the package's project file at the top,
    the program's lib/ and the package sources under layerbench/."""
    shutil.rmtree(SRC, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "lib"), os.path.join(SRC, "lib"))
    shutil.copytree(
        os.path.join(ROOT, PKG), os.path.join(SRC, "layerbench"),
        ignore=shutil.ignore_patterns("dune-project"),
    )
    shutil.copy(os.path.join(ROOT, PKG, "dune-project"), SRC)


def dune(args, timeout):
    exe = shutil.which("dune")
    if exe is None:
        fail("dune is not on PATH", 2)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(ROOT, BUILD_DIR, "xdg-cache")
    cmd = [exe, "build", "--root", ".", "--profile", "release", "--build-dir", OUT] + args
    code, _ = run(cmd, timeout, cwd=SRC, env=env)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the package's tests")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")

    for path in ("lib", os.path.join(PKG, "dune-project"), "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, path)):
            fail("missing %s: run from a full source checkout" % path, 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not args.selftest and args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)

    stage()
    if args.selftest:
        code = dune(["@layerbench/test/runtest"], BUILD_TIMEOUT_S)
        if code != 0:
            fail("self-test failed (dune exit %d)" % code)
        return
    code = dune(["./layerbench/main.exe"], BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed (dune exit %d)" % code)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(os.path.join(ROOT, spans_dir), exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, args.workload + ".tsv")]
    code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    lines = out.decode().splitlines()
    if code != 0 or not lines:
        fail("benchmark exited %d" % code)

    result = json.loads(lines[-1])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(want.items()) ^ set(got.items())))
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
