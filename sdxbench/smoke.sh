#!/usr/bin/env bash
# Smoke run: every workload in both modes on a tiny exchange.  Checks that
# each run emits exactly the metrics BENCHMARK.json names, with their
# units, and that no operation failed.  Takes under a minute:
#
#   bash sdxbench/smoke.sh
set -uo pipefail
cd "$(dirname "$0")/.."
status=0
for workload in churn policy; do
  for trace in 0 1; do
    if ! out=$(bash sdxbench/run.sh --workload "$workload" --seed 1 --seconds 1 \
      --trace "$trace" --smoke); then
      echo "smoke: $workload --trace $trace exited non-zero"
      status=1
    fi
    printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
workload, trace = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
try:
    result = json.loads(sys.stdin.read())
except ValueError:
    sys.exit(f"smoke: {workload} --trace {trace} printed no result")
got = {k: v["unit"] for k, v in result["metrics"].items()}
problems = [f"missing {k}" for k in want if k not in got]
problems += [f"unexpected {k}" for k in got if k not in want]
problems += [f"{k} in {got[k]}, not {u}" for k, u in want.items() if k in got and got[k] != u]
failed, attempted = result["failed"], result["attempted"]
if failed or not result["correct"]:
    problems.append(f"{failed} of {attempted} operations failed")
for p in problems:
    print(f"smoke: {workload} --trace {trace}: {p}")
sys.exit(1 if problems else 0)
' "$workload" "$trace" || status=1
  done
done
[ "$status" = 0 ] && echo "smoke: every workload emitted every metric, no operation failed"
exit "$status"
