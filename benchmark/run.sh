#!/usr/bin/env bash
# The one command: build glbench, run all five workloads with their
# output checks, the traced passes and the isolated-layer probes, print
# every metric by name with its unit and write benchmark/out/result.json
# (metrics, per-simulation rows and host provenance: nproc, CPU model,
# rustc version, commit, seed).
#
#   benchmark/run.sh                  full run, seed 0 (about 3.5 min)
#   benchmark/run.sh --seed 1         another seed
#   benchmark/run.sh --smoke          reduced sizes, correctness only (<15 s)
#
# Exits non-zero if any simulation failed an output check.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- run --all "$@"
