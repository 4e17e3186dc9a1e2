#!/bin/sh
# Build the CLI and run the crash-plan fuzzer on its committed default
# budget, in both persistence pipelines:
#
# 1. Batched (the default config): 200 deterministic plans from seed 1,
#    sweeping all three consistency variants with random crash points,
#    torn in-flight lines and crashes armed inside recovery — every
#    crash point also lands inside flush-coalescing buffers, open WAL
#    groups and async-checkpoint windows.
# 2. Synchronous (--no-batch): half the budget with the batched
#    pipeline forced off, so a regression in the plain path cannot hide
#    behind the batched one (or vice versa).
# 3. Wide, on two domains (--domains 2): 4000 plans from seed 3 over all
#    variants and 6000 NVAlloc-LOG plans from seed 1, about 30 s on two
#    cores. Recovery bugs that show up once in a few thousand plans slip
#    past the 200-plan budget; both sweeps hit such fixed bugs (see
#    EXPERIMENTS.md).
#
# Exits non-zero (printing the shrunk one-line repro) if any plan
# violates the recovery invariants.
#
# Replay a failure with: nvalloc-cli fuzz [--no-batch] --plan "<line>"
# Usage: scripts/fuzz_check.sh [seed] [runs]
# CHECK_FAST=1 trims the budget (smoke coverage, not the gate).
set -eu
cd "$(dirname "$0")/.."
seed="${1:-1}"
runs="${2:-200}"
wide_all=4000
wide_log=6000
if [ "${CHECK_FAST:-0}" = "1" ]; then
  if [ $# -lt 2 ]; then runs=60; fi
  wide_all=400
  wide_log=600
fi
cli=./_build/default/bin/nvalloc_cli.exe
dune build bin/nvalloc_cli.exe

echo "fuzz: batched pipeline ($runs plans)"
"$cli" fuzz --seed "$seed" --runs "$runs"

sync_runs=$((runs / 2))
echo "fuzz: synchronous pipeline ($sync_runs plans)"
"$cli" fuzz --no-batch --seed "$seed" --runs "$sync_runs"

echo "fuzz: wide sweep, all variants ($wide_all plans, 2 domains)"
"$cli" fuzz --seed 3 --runs "$wide_all" --domains 2
echo "fuzz: wide sweep, NVAlloc-LOG ($wide_log plans, 2 domains)"
"$cli" fuzz --variant log --seed 1 --runs "$wide_log" --domains 2
