#!/usr/bin/env bash
# Build the benchmark from source with dune and run it with the given
# arguments.  Run from the repository root; build output goes to stderr
# so the result line stays the last line of standard output.
set -eu
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
