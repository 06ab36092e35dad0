#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given
# arguments from the repository root (see perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
