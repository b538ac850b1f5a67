#!/usr/bin/env bash
# Tier-1 verification, plain and sanitized.
#
# Runs the ROADMAP.md tier-1 check (configure + build + ctest) three times,
# all with FFS_WERROR=ON: in the default build tree, with FFS_SANITIZE=ON
# (AddressSanitizer + UBSan), and as a Release build (the optimisation level
# perfbench uses, where GCC's flow-sensitive warnings fire), plus a
# fault-injection smoke that exercises the failure-recovery paths (crash
# harvesting, retries, slice repair, timeout expiry), 32- and 128-node scale
# smokes and a Chrome-trace smoke under the sanitizers. Usage:
#
#   tools/check.sh          # all passes
#   tools/check.sh plain    # default build only
#   tools/check.sh asan     # sanitized build only
#   tools/check.sh release  # Release build only
#   tools/check.sh faults   # sanitized fault, overload, scale, trace smokes
#   tools/check.sh tsan     # ThreadSanitizer parallel-sweep smoke only
#   tools/check.sh tidy     # clang-tidy over src/ (fails if not installed)
#   tools/check.sh perfbench  # build perfbench/ and run 1 s traced smokes
#
# Parallelism: -j N after the mode, else FFS_JOBS, else nproc.
#
#   tools/check.sh plain -j 4
#   FFS_JOBS=8 tools/check.sh tidy
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-all}"
jobs="${FFS_JOBS:-$(nproc 2>/dev/null || echo 4)}"
if [[ "${2:-}" == "-j" ]]; then
  jobs="${3:?-j needs a job count}"
fi
case "${jobs}" in
  ''|*[!0-9]*|0)
    echo "error: job count must be a positive integer, got '${jobs}'" >&2
    exit 2
    ;;
esac

run_pass() {
  local dir="$1"; shift
  echo "=== ${dir}: cmake $* ==="
  cmake -B "${dir}" -S . "$@"
  cmake --build "${dir}" -j "${jobs}"
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

# Shortened fault and overload sweeps under ASan/UBSan: the recovery
# machinery moves a lot of in-flight state between instances, slices and
# timers, and the QoS policies reorder, shed and reject pending work —
# exactly where lifetime bugs would hide.
run_faults() {
  echo "=== build-asan: fault-injection and overload smokes ==="
  cmake -B build-asan -S . -DFFS_SANITIZE=ON
  cmake --build build-asan -j "${jobs}" --target fault_sweep overload_sweep \
    fluidfaas
  ( cd build-asan && FFS_BENCH_DURATION_S=10 \
      FFS_SWEEP_OUT=fault_sweep_smoke.json ./bench/fault_sweep )
  # The artifact is the standard sweep document: 4 rates x 5 systems, each
  # cell carrying the full report with its availability block.
  python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "fluidfaas.sweep.v1", doc["schema"]
cells = doc["cells"]
assert len(cells) == 20, len(cells)
for c in cells:
    assert "goodput_rps" in c["result"]["availability"], c["index"]
print("fault_sweep artifact ok:", len(cells), "cells")
' build-asan/fault_sweep_smoke.json
  ( cd build-asan && FFS_BENCH_DURATION_S=10 \
      FFS_SWEEP_OUT=overload_sweep_smoke.json ./bench/overload_sweep )
  # 3 loads x 4 QoS variants x 3 seeds x 5 systems, each cell naming its
  # variant and carrying the report's QoS block.
  python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "fluidfaas.sweep.v1", doc["schema"]
cells = doc["cells"]
assert len(cells) == 180, len(cells)
labels = {"fifo/none", "fair/none", "edf/none", "fifo/shed"}
for c in cells:
    assert c["variant"] in labels, c["index"]
    assert isinstance(c["result"]["qos"], dict), c["index"]
print("overload_sweep artifact ok:", len(cells), "cells")
' build-asan/overload_sweep_smoke.json
  # Every scheduler on the heavy tier at 32 and at 128 nodes: the instance
  # churn of a large cluster under the sanitizers. At 128 nodes a
  # function's instance lists pass the size where their load indexes keep
  # trees, so every enqueue, completion, launch and retire mends them. Every
  # scheduler but FluidFaaS-dist must complete every request; FluidFaaS-dist
  # does not scale out yet (ROADMAP item 7), so its completions are not
  # asserted.
  for nodes in 32 128; do
    ./build-asan/tools/fluidfaas sweep \
      --systems fluidfaas,distributed,esg,infless,repartition --tiers heavy \
      --nodes "${nodes}" --duration 20 --jobs "${jobs}" \
      --out "build-asan/scale_smoke_${nodes}.json"
    python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "fluidfaas.sweep.v1", doc["schema"]
assert len(doc["cells"]) == 5, len(doc["cells"])
for c in doc["cells"]:
    r = c["result"]
    if c["system"] == "FluidFaaS-dist":
        continue
    assert r["completed_requests"] == r["total_requests"], (
        c["system"], r["completed_requests"], r["total_requests"])
print("scale smoke ok:", sys.argv[1], len(doc["cells"]), "cells")
' "build-asan/scale_smoke_${nodes}.json"
  done
  # The Chrome-trace exporter under the sanitizers, on a faulted fair/shed
  # run so its request, fault and QoS handlers all run.
  ./build-asan/tools/fluidfaas run --system fluidfaas --tier medium \
    --duration 20 --fault-rate 0.2 --timeout-scale 3 --queue fair \
    --admission shed --trace-out build-asan/trace_smoke.json
  python3 -c '
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
procs = {e["args"]["name"] for e in events if e["ph"] == "M"}
assert procs == {"requests", "instances", "slices", "gpus", "planner",
                 "queue"}, procs
cats = {e.get("cat") for e in events}
assert {"request", "fault", "qos"} <= cats, cats
print("trace smoke ok:", len(events), "events")
' build-asan/trace_smoke.json
}

# Short parallel sweep under ThreadSanitizer: several worker threads run
# shared-nothing RunContexts concurrently, each building its scheduler from
# the constant SystemKind table, and share only the pool's cell counter and
# error slot — exactly the surface a data race would hit. TSan halts with a
# non-zero exit on the first report, so a green run means zero reports.
run_tsan() {
  echo "=== build-tsan: parallel sweep smoke under ThreadSanitizer ==="
  cmake -B build-tsan -S . -DFFS_TSAN=ON
  cmake --build build-tsan -j "${jobs}" --target fluidfaas
  ( cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ./tools/fluidfaas sweep --tiers light --duration 20 \
        --seeds 1,2 --jobs 4 --out sweep_tsan_smoke.json )
}

# Static analysis with the checked-in .clang-tidy (bugprone-*, performance-*,
# readability-container-size-empty). An explicit `check.sh tidy` fails
# loudly when clang-tidy is missing — a green "pass" that never ran is worse
# than an error. Only the aggregate `all` mode soft-skips (with a warning),
# so the minimal toolchain image can still run every other pass.
run_tidy() {
  local soft="${1:-hard}"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    if [[ "${soft}" == "soft" ]]; then
      echo "=== tidy: WARNING — clang-tidy not installed, pass SKIPPED ===" >&2
      return 0
    fi
    echo "error: clang-tidy is not installed; refusing to pretend the tidy" \
         "pass ran (use 'check.sh all' to soft-skip it)" >&2
    return 1
  fi
  echo "=== tidy: clang-tidy over src/ (jobs=${jobs}) ==="
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  local files
  files=$(find src -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    # shellcheck disable=SC2086  # intentional word-splitting of the file list
    run-clang-tidy -p build -quiet -j "${jobs}" ${files}
  else
    # No run-clang-tidy wrapper: shard the file list across ${jobs} parallel
    # clang-tidy processes ourselves so -j/FFS_JOBS is honored either way.
    # shellcheck disable=SC2086
    printf '%s\n' ${files} | xargs -P "${jobs}" -n 8 clang-tidy -p build --quiet
  fi
}

# Simulator-benchmark smokes: perfbench/ wraps the policy seam with timing
# decorators, so building it catches interface drift the main tree cannot
# see. The benchmark state-checks and digests every cell; the last stdout
# line is its JSON result, which must report every cell correct. On
# light-steady, heavy-paper and heavy-4x every scheduler must also stay
# under 6 Route calls and 10 queue offers per request (the counts are
# deterministic; heavy-paper keeps the pending set deep, and heavy-4x
# grows it with the cluster; both peak at 4.8 per request, calls on
# heavy-paper and offers on heavy-4x). overload-qos is
# the only workload with faults and fair/shed queueing, so only its record
# checks run through FaultInjector::Stop's cancel. It is the only one with
# an enforcement timeout, too: its deterministic sim.events_per_request
# must stay below 2.2 (about 1.8 with one timer per function; one timer
# per request, never cancelled, gave 2.78).
run_perfbench() {
  local workload out
  for workload in light-steady heavy-paper heavy-4x overload-qos; do
    echo "=== perfbench: ${workload} smoke ==="
    out=$(python3 perfbench/run.py --workload "${workload}" --seconds 1 \
          --trace 1)
    python3 -c '
import json, sys
r = json.loads(sys.argv[1].splitlines()[-1])
assert r["correct"] is True and r["failed"] == 0, r
if sys.argv[2] == "overload-qos":
    epr = r["metrics"]["sim.events_per_request"]["value"]
    assert epr < 2.2, f"2.2 or more events per request: {epr}"
    print("perfbench ok:", r["attempted"], "cells; events/request", epr)
    sys.exit(0)
calls = {k: m["value"] for k, m in r["metrics"].items()
         if ".route_calls_per_request." in k}
assert calls, "no route_calls_per_request metrics"
over = {k: v for k, v in calls.items() if not v < 6}
assert not over, f"6 or more Route calls per request: {over}"
offers = {k: m["value"] for k, m in r["metrics"].items()
          if k.startswith("qos.offers_per_request.")}
assert offers, "no qos.offers_per_request metrics"
over = {k: v for k, v in offers.items() if not v < 10}
assert not over, f"10 or more queue offers per request: {over}"
print("perfbench ok:", r["attempted"], "cells; max Route calls/request",
      max(calls.values()), "; max offers/request", max(offers.values()))
' "${out}" "${workload}"
  done
}

case "${mode}" in
  plain)  run_pass build -DFFS_WERROR=ON ;;
  asan)   run_pass build-asan -DFFS_SANITIZE=ON -DFFS_WERROR=ON ;;
  release)
    run_pass build-release -DCMAKE_BUILD_TYPE=Release -DFFS_WERROR=ON ;;
  faults) run_faults ;;
  tsan)   run_tsan ;;
  tidy)   run_tidy ;;
  perfbench) run_perfbench ;;
  all)
    run_pass build -DFFS_WERROR=ON
    run_pass build-asan -DFFS_SANITIZE=ON -DFFS_WERROR=ON
    run_pass build-release -DCMAKE_BUILD_TYPE=Release -DFFS_WERROR=ON
    run_faults
    run_tsan
    run_perfbench
    run_tidy soft
    ;;
  *)
    echo "usage: tools/check.sh" \
         "[plain|asan|release|all|faults|tsan|tidy|perfbench] [-j N]" >&2
    exit 2
    ;;
esac
echo "=== check.sh: all requested passes green ==="
