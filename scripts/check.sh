#!/usr/bin/env bash
# CI entry point: runs `make check` from the repository root — lint
# (byte-compile + collect), the docstring coverage gate, tier-1 tests,
# the benchmark smoke pass, the perf-regression smoke, the docs link
# check, and the examples smoke.  Every step and every test list lives
# in the Makefile only, so this script cannot drift from it.
set -euo pipefail
cd "$(dirname "$0")/.."
exec make check
