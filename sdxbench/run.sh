#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash sdxbench/run.sh --workload churn|policy --seed N \
#     --seconds S --trace 0|1 [--smoke]
#
# Run it from the root of a source tree.  The build goes to .bench_build
# with dune's shared cache off, so nothing is written outside the tree;
# build messages go to stderr.  The last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --build-dir .bench_build --cache=disabled \
  ./sdxbench/sdxbench.exe 1>&2
if [ -d .git ]; then
  SDXBENCH_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
  export SDXBENCH_REV
fi
# Compilation runs on one domain.  On a 2-vCPU host shared with other
# tenants, a second domain made every measured path slower and its runs
# scatter more: the idle pool worker still takes part in every minor
# collection, so each one waits for the other vCPU.
export SDX_DOMAINS=1
exec .bench_build/default/sdxbench/sdxbench.exe "$@"
