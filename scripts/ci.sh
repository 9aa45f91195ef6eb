#!/usr/bin/env bash
# Tier-1 verify, exactly as ROADMAP.md specifies:
#   cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j
# followed by a bench smoke (bench_batch on tiny instances must emit a
# BENCH_batch.json that parses as JSON), an engine-cache smoke, the JSON
# bench smokes (none needs google-benchmark), the request-level benchmark's
# smoke, a UBSan pass, an ASan ctest
# pass over every suite, a TSan pass over the multi-threaded suites, a
# Release (-O3, -Werror) build and ctest of every target, and a fuzz smoke: 200
# deterministic differential cases of the §5 driver against the exact
# solver. A fuzz divergence exits non-zero and
# leaves minimized repro files in build/fuzz-repros/ (uploaded as a CI
# artifact; check the repro into tests/corpus/ once the bug is fixed).
#
# Run from the repository root. Pass extra cmake arguments through, e.g.
#   scripts/ci.sh -DMMDIAG_FORCE_BUNDLED_GTEST=ON
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S . "$@"
cmake --build build -j
cd build
ctest --output-on-failure -j

if [ -x bench/bench_batch ]; then
  ./bench/bench_batch --smoke --out BENCH_batch.json
  if command -v python3 >/dev/null; then
    # Beyond parsing, the smoke must show the bitsliced cohort path alive
    # and equivalent: every topology needs a sliced_vs_scalar row with a
    # 64-lane cohort width whose results matched the scalar path bit for
    # bit (the binary exits non-zero on divergence; the fields are
    # re-checked here so a reporting bug cannot mask one).
    python3 - <<'PY'
import json
with open("BENCH_batch.json") as f:
    report = json.load(f)
rows = report["results"]
assert rows, "BENCH_batch.json has no results"
sliced = [r for r in rows if r.get("mode") == "sliced_vs_scalar"]
assert sliced, "no sliced_vs_scalar rows: bitsliced cohort path never ran"
for r in sliced:
    assert r["cohort_width"] == 64, f"unexpected cohort width: {r}"
    assert r["identical_to_sequential"], \
        f"bitsliced cohort diverged from the scalar path: {r}"
    assert r["sliced_vs_scalar"] > 0, f"degenerate throughput ratio: {r}"
print(f"bench smoke: {len(sliced)} sliced_vs_scalar rows, "
      "bitsliced cohorts bit-identical to the scalar path")
PY
  else
    echo "bench smoke: python3 unavailable, JSON validation skipped"
  fi
else
  echo "bench smoke: bench_batch not built (benches disabled), skipped"
fi

if [ -x bench/bench_engine ]; then
  # The engine smoke must show the calibration cache actually caching: on
  # the repeated-spec stream the hit counter has to be nonzero (and
  # eviction must fire on the thrash stream), or the service layer has
  # silently degraded to calibrate-per-request.
  ./bench/bench_engine --smoke --out BENCH_engine.json
  if command -v python3 >/dev/null; then
    python3 - <<'PY'
import json
with open("BENCH_engine.json") as f:
    report = json.load(f)
rows = report["results"]
assert rows, "BENCH_engine.json has no results"
repeated = [r for r in rows if r["stream"] == "repeated-spec"]
assert repeated, "no repeated-spec rows"
for r in repeated:
    assert r["cache_hits"] > 0, f"repeated-spec stream scored no cache hits: {r}"
    assert r["identical_to_direct"], f"engine diverged from direct diagnosis: {r}"
assert any(r["cache_evictions"] > 0 for r in rows if r["stream"] == "thrash"), \
    "thrash stream never evicted"
print("engine smoke: cache hit/evict counters live, results identical to direct")
PY
  else
    echo "engine smoke: python3 unavailable, JSON validation skipped"
  fi
else
  echo "engine smoke: bench_engine not built (benches disabled), skipped"
fi

if [ -x bench/bench_scale ]; then
  # The scale smoke must show the CSR path solving a >= 2^16 node
  # instance, calibrated as the engine serves it, inside a modest memory
  # budget.
  ./bench/bench_scale --smoke --out BENCH_scale.json
  if command -v python3 >/dev/null; then
    python3 - <<'PY'
import json
with open("BENCH_scale.json") as f:
    report = json.load(f)
rows = report["results"]
assert rows, "BENCH_scale.json has no results"
assert report["calibration_scope"].startswith("all components"), \
    f"bench_scale calibrates a scope the engine does not serve: {report}"
assert report["syndrome"].startswith("synthetic"), \
    "bench_scale lost its synthetic-syndrome label"
assert report["calibration_lanes"] >= 1, \
    f"bench_scale does not record its calibration lanes: {report}"
assert any(r["nodes"] >= 65536 for r in rows), \
    "no row reached 2^16 nodes: the scale path never scaled"
for r in rows:
    assert r["peak_rss_kb"] < 262144, \
        f"scale smoke exceeded the 256 MB peak-RSS budget: {r}"
    assert r["calibration_seconds"] > 0, f"calibration was not timed: {r}"
print(f"scale smoke: {len(rows)} rows inside the peak-RSS budget")
PY
  else
    echo "scale smoke: python3 unavailable, JSON validation skipped"
  fi
else
  echo "scale smoke: bench_scale not built, skipped"
fi

if [ -x bench/bench_models ]; then
  # The model smoke must show every diagnosis model answering (MM*, PMC and
  # BGM global rows all succeed) and the BGM local fast path holding its
  # contract: per-request look-ups within the 2-ball bound and a throughput
  # far above the global solve (the binary itself exits non-zero on a bound
  # violation; the JSON fields are re-checked here so a reporting bug
  # cannot mask one).
  ./bench/bench_models --smoke --out BENCH_models.json
  if command -v python3 >/dev/null; then
    python3 - <<'PY'
import json
with open("BENCH_models.json") as f:
    report = json.load(f)
rows = report["results"]
assert rows, "BENCH_models.json has no results"
models = {r["model"] for r in rows if r["mode"] == "global"}
assert models == {"mm-star", "pmc", "bgm"}, f"missing global rows: {models}"
for r in rows:
    if r["mode"] == "global":
        assert r["succeeded"] == r["syndromes"], f"global solves failed: {r}"
local = [r for r in rows if r["mode"] == "local"]
assert local, "no BGM local-diagnosis row: the fast path never ran"
for r in local:
    assert r["within_lookup_bound"], f"local request broke the bound: {r}"
    assert r["max_request_lookups"] <= r["lookup_bound"], \
        f"max look-ups above the 2-ball bound: {r}"
    assert r["speedup_vs_global_solve"] > 10, \
        f"local fast path not meaningfully faster than a global solve: {r}"
print(f"model smoke: {len(rows)} rows, all models live, local fast path "
      "within its look-up bound")
PY
  else
    echo "model smoke: python3 unavailable, JSON validation skipped"
  fi
else
  echo "model smoke: bench_models not built, skipped"
fi

if [ -x bench/bench_churn ]; then
  # The churn smoke must show the warm incremental path holding bit-identity
  # against cold full recalibration on hostile generated streams (expected
  # errors included), and the steady-state solve cache actually serving:
  # timed-repeat rows spend zero warm look-ups while cold re-solves every
  # round (the binary itself exits non-zero on divergence; the JSON fields
  # are re-checked here so a reporting bug cannot mask one).
  ./bench/bench_churn --smoke --out BENCH_churn.json
  if command -v python3 >/dev/null; then
    python3 - <<'PY'
import json
with open("BENCH_churn.json") as f:
    report = json.load(f)
assert report["all_identical"], "a warm churn answer diverged from cold"
rows = report["results"]
assert rows, "BENCH_churn.json has no results"
harness = [r for r in rows if r["mode"] == "harness"]
assert harness, "no harness rows: no churn stream was replayed"
assert any(r["oracle"] == "table" for r in harness), "no table-oracle row"
for r in harness:
    assert r["identical_warm_cold"], f"warm diverged from cold: {r}"
    assert r["divergences"] == 0, f"harness reported divergences: {r}"
    assert r["expected_errors"] > 0, f"hostile events never fired: {r}"
    assert r["topology_events"] > 0 and r["diagnose_events"] > 0, \
        f"degenerate stream: {r}"
    assert r["warm_recert_components"] < r["cold_recert_components"], \
        f"incremental recertification did no less work than cold: {r}"
repeat = [r for r in rows if r["mode"] == "timed-repeat"]
assert repeat, "no timed-repeat rows: the solve cache was never measured"
for r in repeat:
    assert r["identical_warm_cold"], f"cached answer diverged from cold: {r}"
    assert r["warm_lookups"] == 0, f"steady-state warm path spent look-ups: {r}"
    assert r["cold_lookups"] > 0, f"degenerate cold reference: {r}"
print(f"churn smoke: {len(harness)} harness rows bit-identical warm vs cold, "
      "steady-state cache serves with zero look-ups")
PY
  else
    echo "churn smoke: python3 unavailable, JSON validation skipped"
  fi
else
  echo "churn smoke: bench_churn not built, skipped"
fi

# hardware_threads must be present in every bench report that carries
# speed numbers, so a reader can tell a 1-thread CI container's timings
# from a workstation's.
if command -v python3 >/dev/null; then
  python3 - <<'PY'
import json
for name in ("BENCH_batch.json", "BENCH_engine.json", "BENCH_scale.json",
             "BENCH_models.json", "BENCH_churn.json"):
    try:
        with open(name) as f:
            report = json.load(f)
    except FileNotFoundError:
        continue  # that bench was skipped above
    assert "hardware_threads" in report, f"{name} lost its hardware_threads meta"
    assert report["hardware_threads"] >= 1, f"{name} hardware_threads degenerate"
print("meta smoke: hardware_threads recorded in every emitted bench report")
PY
fi

# The frozen request-level benchmark (reqbench/) must still build against
# the library and answer every workload correctly on tiny instances, with
# every metric BENCHMARK.json names. It builds into its own .bench_build/.
if command -v python3 >/dev/null; then
  (cd .. && python3 reqbench/run.py --smoke)
else
  echo "reqbench smoke: python3 unavailable, skipped"
fi

# UBSan pass over the word-level kernels the bitsliced path leans on:
# extract/row_bits/transpose64 shift edge cases trap at runtime under
# -fsanitize=undefined instead of silently wrapping, and the directed-model
# suites ride along so PMC/BGM hash and bit plumbing get the same scrutiny.
# churn_test rides along too: the overlay's dead-edge masks, the masked oracle reads and the
# changed-row bitsets are the same kind of shift-heavy word plumbing. Only
# the suites that exercise those kernels are built, so the pass stays cheap.
cd ..
cmake -B build-ubsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all" \
  "$@"
cmake --build build-ubsan -j --target util_test syndrome_test \
  dispatch_equiv_test model_test directed_solver_test model_fuzz_test \
  churn_test
./build-ubsan/tests/util_test
./build-ubsan/tests/syndrome_test
./build-ubsan/tests/dispatch_equiv_test
./build-ubsan/tests/model_test
./build-ubsan/tests/directed_solver_test
./build-ubsan/tests/model_fuzz_test
./build-ubsan/tests/churn_test
echo "ubsan smoke: word-level kernel, directed-model and churn" \
     "suites clean under -fsanitize=undefined"

# ASan over every suite: ctest of the whole tier-1 set (examples off, so the
# CLI-driven corpus and batch cases stay with the main build) must run
# clean under -fsanitize=address, leak checking included.
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
  -DMMDIAG_BUILD_EXAMPLES=OFF -DMMDIAG_BUILD_BENCH=OFF \
  "$@"
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -j)
echo "asan smoke: every suite clean under -fsanitize=address"

# TSan over the suites that share state across threads: serve() lanes and
# the calibration cache (engine_test, batch_test), component probes on
# pool lanes (certified_partition_test) and churn racing in-flight serves
# (churn_test).
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DMMDIAG_BUILD_EXAMPLES=OFF -DMMDIAG_BUILD_BENCH=OFF \
  "$@"
cmake --build build-tsan -j --target engine_test batch_test churn_test \
  certified_partition_test
./build-tsan/tests/engine_test
./build-tsan/tests/batch_test
./build-tsan/tests/certified_partition_test
./build-tsan/tests/churn_test
echo "tsan smoke: engine, batch, certified-partition and churn suites" \
     "clean under -fsanitize=thread"

# Release build of every target: -O3 enables optimiser-driven warnings
# (GCC's -Wrestrict, -Wstringop-*) that the default RelWithDebInfo -O2
# build never sees, and -Werror makes them fatal.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release "$@"
cmake --build build-release -j
(cd build-release && ctest --output-on-failure -j)
echo "release smoke: -O3 build of every target clean, ctest green"
cd build

if [ -x examples/mmdiag_cli ]; then
  # Fixed seed so the case stream is reproducible from the log alone;
  # budgeted so a pathological slowdown cannot hang CI — but an exhausted
  # budget means the smoke did NOT cover its cases, which must fail too.
  ./examples/mmdiag_cli fuzz --cases 200 --seed 1 --max-bugs 3 \
    --budget-seconds 120 --out-dir fuzz-repros | tee fuzz-smoke.log
  if grep -q "budget exhausted" fuzz-smoke.log; then
    echo "fuzz smoke: FAILED — budget exhausted before the case stream ran" \
         "(differential cases have slowed down drastically)"
    exit 1
  fi
  # Per-model streams: each differ voice (MM*, PMC, BGM) must survive a
  # dedicated smoke against its own exact solver, not just whatever mix the
  # default rotation happened to draw.
  for model in mm-star pmc bgm; do
    ./examples/mmdiag_cli fuzz --model "$model" --cases 60 --seed 2 \
      --max-bugs 3 --budget-seconds 120 --out-dir fuzz-repros \
      | tee "fuzz-smoke-$model.log"
    if grep -q "budget exhausted" "fuzz-smoke-$model.log"; then
      echo "fuzz smoke ($model): FAILED — budget exhausted before the" \
           "case stream ran"
      exit 1
    fi
  done
  echo "fuzz smoke: clean (default rotation + one stream per model)"
else
  echo "fuzz smoke: mmdiag_cli not built (examples disabled), skipped"
fi
