#!/usr/bin/env bash
# Repo lint gate: configure + build + clang-tidy + analysis tests + protocol
# check, as one command (DESIGN.md §9, README "Analysis").
#
#   tools/check.sh            # full gate
#   tools/check.sh --fast     # skip the UBSan rebuild + TSan stage
#
# Stages:
#   1. UBSan build   — cmake -DMALT_SANITIZE=undefined, -fno-sanitize-recover,
#                      so any UB aborts the gate.
#   2. clang-tidy    — .clang-tidy profile over src/ and tools/ (skipped with
#                      a warning if clang-tidy is not installed).
#   2b. thread-safety — clang build with -Werror=thread-safety over the whole
#                      tree (the MALT_THREAD_SAFETY cmake option), checking
#                      the lock-discipline annotations in src/base/mutex.h.
#                      Skipped with a warning if clang++ is not installed.
#   3. lint_malt_api — repo-specific API lint (raw segment writes outside the
#                      transports, nondeterminism in src/check/, telemetry
#                      metric naming).
#   4. ctest -L analysis — the protocol-checker test suite.
#   4b. model check   — cmake -DMALT_MODELCHECK=ON build, then ctest -L
#                      modelcheck: exhaustive DFS over the tiny seqlock,
#                      shmem publish and rank-kill configs, a
#                      fixed-seed PCT sweep, and the planted-bug
#                      mutation matrix with deterministic replay
#                      (tools/malt_mc --selftest + tests/test_modelcheck).
#                      Failing schedules land in /tmp/malt_mc_*.trace; replay
#                      one with malt_mc --harness=<h> --mc_replay=<file>.
#   5. malt_run --check=full — the SVM example under the happens-before
#                      validator, on both transports, plus MF under ASP on
#                      both and SSP on shmem (variable-size sparse objects
#                      racing the reader, no barrier; on the simulator they
#                      are shorter than their slot, so they land through the
#                      stripe-tail copy of the buffer-swap apply; SSP also
#                      certifies MF's gate releases); any violation fails
#                      the gate.
#   6. report.py trace smoke — flow-traced runs with the NDJSON sampler on
#                      both transports, rendered by tools/report.py.
#   6b. report.py health smoke — planted-straggler runs (one rank slowed via
#                      --slow_rank) with --postmortem_out on both transports;
#                      the straggler warning, the critical-path records, and
#                      tools/report.py's health tables must all name the
#                      planted rank.
#   7. TSan build + ctest -L shmem + test_sim_engine + test_ml_dataset — the
#                      shared-memory transport suite (real concurrent rank
#                      threads), the simulator engine's fiber switches and the
#                      parallel dataset generator under
#                      ThreadSanitizer, plus an 8-rank malt_run with the 50ms
#                      metrics sampler and the flight recorder's trace_tail
#                      racing the workers; any data race fails the gate.
#   8. ASan build + full ctest — the whole suite under AddressSanitizer with
#                      LeakSanitizer on; any bad access or leak fails the
#                      gate.
set -u

cd "$(dirname "$0")/.."
REPO="$PWD"
BUILD_DIR="${BUILD_DIR:-$REPO/build-ubsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

failures=0
note() { printf '\n== %s\n' "$*"; }
fail() { printf 'check.sh: FAIL: %s\n' "$*" >&2; failures=$((failures + 1)); }

# --- 1. configure + build (UBSan) -------------------------------------------
note "configure + build (MALT_SANITIZE=undefined) in $BUILD_DIR"
if [ "$FAST" = 1 ] && [ -d "$BUILD_DIR" ]; then
  echo "(--fast: reusing existing build)"
fi
cmake -B "$BUILD_DIR" -S "$REPO" -DMALT_SANITIZE=undefined >/dev/null \
  || { fail "cmake configure"; exit 1; }
cmake --build "$BUILD_DIR" -j "$JOBS" > /tmp/malt_check_build.log 2>&1 \
  || { tail -40 /tmp/malt_check_build.log; fail "build"; exit 1; }
echo "build OK"

# --- 2. clang-tidy -----------------------------------------------------------
note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  # The UBSan build exports compile_commands.json via CMAKE_EXPORT_COMPILE_COMMANDS.
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    cmake -B "$BUILD_DIR" -S "$REPO" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  mapfile -t tidy_sources < <(find src tools -name '*.cc' -o -name '*.cpp' | sort)
  if clang-tidy -p "$BUILD_DIR" --quiet "${tidy_sources[@]}" > /tmp/malt_check_tidy.log 2>&1; then
    echo "clang-tidy OK (${#tidy_sources[@]} files)"
  else
    tail -60 /tmp/malt_check_tidy.log
    fail "clang-tidy"
  fi
else
  echo "WARNING: clang-tidy not installed; skipping the tidy stage" >&2
fi

# --- 2b. clang thread-safety analysis ----------------------------------------
note "clang thread-safety analysis"
if command -v clang++ >/dev/null 2>&1; then
  TS_BUILD_DIR="${TS_BUILD_DIR:-$REPO/build-threadsafety}"
  # A plain clang build: MALT_THREAD_SAFETY is ON by default, so this compiles
  # the whole tree under -Werror=thread-safety. Any guarded-field access
  # without its lock, or missing REQUIRES on a locked call path, fails here.
  if cmake -B "$TS_BUILD_DIR" -S "$REPO" -DCMAKE_CXX_COMPILER=clang++ >/dev/null \
     && cmake --build "$TS_BUILD_DIR" -j "$JOBS" > /tmp/malt_check_ts_build.log 2>&1; then
    echo "thread-safety build OK"
  else
    tail -40 /tmp/malt_check_ts_build.log
    fail "clang -Werror=thread-safety build"
  fi
else
  echo "WARNING: clang++ not installed; skipping the thread-safety stage" >&2
fi

# --- 3. MALT API lint ---------------------------------------------------------
note "lint_malt_api"
if python3 "$REPO/tools/lint_malt_api.py"; then
  :
else
  fail "lint_malt_api"
fi

# --- 4. analysis-labelled tests ---------------------------------------------
note "ctest -L analysis"
if (cd "$BUILD_DIR" && ctest -L analysis --output-on-failure -j "$JOBS"); then
  echo "analysis tests OK"
else
  fail "ctest -L analysis"
fi

# --- 4b. systematic interleaving checker -------------------------------------
# Runs in --fast too: the exhaustive sweeps are bounded (< 60 s for the
# largest config) and this is the only stage that exercises the mc:: shim's
# instrumented builds at all.
MC_BUILD_DIR="${MC_BUILD_DIR:-$REPO/build-modelcheck}"
note "configure + build (MALT_MODELCHECK=ON) in $MC_BUILD_DIR"
if cmake -B "$MC_BUILD_DIR" -S "$REPO" -DMALT_MODELCHECK=ON >/dev/null \
   && cmake --build "$MC_BUILD_DIR" -j "$JOBS" --target malt_mc test_modelcheck \
        > /tmp/malt_check_mc_build.log 2>&1; then
  echo "model-check build OK"
  note "ctest -L modelcheck (exhaustive DFS + PCT sweep + mutation matrix)"
  if (cd "$MC_BUILD_DIR" && ctest -L modelcheck --output-on-failure); then
    echo "model check OK"
  else
    fail "ctest -L modelcheck (schedule traces: /tmp/malt_mc_*.trace)"
  fi
else
  tail -40 /tmp/malt_check_mc_build.log
  fail "model-check build (MALT_MODELCHECK=ON)"
fi

# --- 5. protocol check: SVM and MF ASP on both transports, MF SSP on shmem ----
note "malt_run --check=full (SVM, sim)"
if "$BUILD_DIR/tools/malt_run" --app=svm --epochs=3 --check=full \
     --check_out=/tmp/malt_check_report.json; then
  echo "protocol check OK (report: /tmp/malt_check_report.json)"
else
  cat /tmp/malt_check_report.json 2>/dev/null
  fail "malt_run --check=full reported violations"
fi
note "malt_run --check=full (SVM, shmem)"
if "$BUILD_DIR/tools/malt_run" --app=svm --epochs=3 --check=full --transport=shmem \
     --check_out=/tmp/malt_check_report_shmem.json; then
  echo "protocol check OK (report: /tmp/malt_check_report_shmem.json)"
else
  cat /tmp/malt_check_report_shmem.json 2>/dev/null
  fail "malt_run --check=full --transport=shmem reported violations"
fi
note "malt_run --check=full (MF, ASP, sim)"
if "$BUILD_DIR/tools/malt_run" --app=mf --sync=asp --epochs=3 --check=full \
     --check_out=/tmp/malt_check_report_mf_asp_sim.json; then
  echo "protocol check OK (report: /tmp/malt_check_report_mf_asp_sim.json)"
else
  cat /tmp/malt_check_report_mf_asp_sim.json 2>/dev/null
  fail "malt_run --app=mf --sync=asp --check=full reported violations"
fi
note "malt_run --check=full (MF, ASP, shmem)"
if "$BUILD_DIR/tools/malt_run" --app=mf --sync=asp --epochs=3 --check=full --transport=shmem \
     --check_out=/tmp/malt_check_report_mf_asp.json; then
  echo "protocol check OK (report: /tmp/malt_check_report_mf_asp.json)"
else
  cat /tmp/malt_check_report_mf_asp.json 2>/dev/null
  fail "malt_run --app=mf --sync=asp --check=full --transport=shmem reported violations"
fi
note "malt_run --check=full (MF, SSP, shmem)"
if "$BUILD_DIR/tools/malt_run" --app=mf --sync=ssp --epochs=3 --check=full --transport=shmem \
     --check_out=/tmp/malt_check_report_mf_ssp.json; then
  echo "protocol check OK (report: /tmp/malt_check_report_mf_ssp.json)"
else
  cat /tmp/malt_check_report_mf_ssp.json 2>/dev/null
  fail "malt_run --app=mf --sync=ssp --check=full --transport=shmem reported violations"
fi

# --- 6. report.py trace smoke on both transports -----------------------------
note "report.py trace smoke (sim + shmem)"
trace_report_smoke() {
  local transport="$1"
  local prefix="/tmp/malt_check_report_${transport}"
  "$BUILD_DIR/tools/malt_run" --app=svm --ranks=4 --epochs=2 --transport="$transport" \
      --trace_out="${prefix}_trace.json" --metrics_out="${prefix}_metrics.json" \
      --metrics_interval_ms=20 --metrics_stream="${prefix}_stream.ndjson" \
      > /dev/null \
    && python3 "$REPO/tools/report.py" --trace "${prefix}_trace.json" \
         --metrics "${prefix}_metrics.json" --stream "${prefix}_stream.ndjson" \
         > "${prefix}_report.txt" \
    && grep -q 'flow summary' "${prefix}_report.txt" \
    && grep -q 'per-edge communication' "${prefix}_report.txt"
}
for transport in sim shmem; do
  if trace_report_smoke "$transport"; then
    echo "report.py trace OK ($transport; /tmp/malt_check_report_${transport}_report.txt)"
  else
    fail "report.py trace smoke ($transport)"
  fi
done

# --- 6b. report.py health smoke: planted straggler + postmortem (both) -------
note "report.py health smoke (planted straggler, sim + shmem)"
health_report_smoke() {
  local transport="$1"
  local prefix="/tmp/malt_check_health_${transport}"
  "$BUILD_DIR/tools/malt_run" --app=svm --ranks=4 --epochs=4 --transport="$transport" \
      --slow_rank=2 --slow_factor=8 \
      --metrics_out="${prefix}_metrics.json" \
      --metrics_interval_ms=20 --metrics_stream="${prefix}_stream.ndjson" \
      --postmortem_out="${prefix}_postmortem.ndjson" \
      > "${prefix}_stdout.txt" \
    && grep -q 'warning: rank 2 straggled' "${prefix}_stdout.txt" \
    && grep -q '"type":"critical_path"' "${prefix}_stream.ndjson" \
    && python3 "$REPO/tools/report.py" --stream "${prefix}_stream.ndjson" \
         --metrics "${prefix}_metrics.json" > "${prefix}_report.txt" \
    && grep -q 'per-epoch critical path' "${prefix}_report.txt" \
    && grep -qE '^2 .*STRAGGLER' "${prefix}_report.txt"
}
for transport in sim shmem; do
  if health_report_smoke "$transport"; then
    echo "report.py health OK ($transport; /tmp/malt_check_health_${transport}_report.txt)"
  else
    fail "report.py health smoke ($transport)"
  fi
done

# --- 7. TSan build + shmem-labelled tests ------------------------------------
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-$REPO/build-tsan}"
note "configure + build (MALT_SANITIZE=thread) in $TSAN_BUILD_DIR"
if [ "$FAST" = 1 ]; then
  echo "(--fast: skipping the TSan stage)"
else
  if cmake -B "$TSAN_BUILD_DIR" -S "$REPO" -DMALT_SANITIZE=thread >/dev/null \
     && cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" \
          --target test_base_seqlock test_shmem_transport test_shmem_dstorm test_shmem_runtime \
                   test_check_shmem test_telemetry_trace test_telemetry_flow test_telemetry_stream \
                   test_telemetry_health test_telemetry_flightrec test_sim_engine test_ml_dataset \
                   malt_run \
          > /tmp/malt_check_tsan_build.log 2>&1; then
    echo "TSan build OK"
    note "ctest -L shmem + test_sim_engine + test_ml_dataset (ThreadSanitizer)"
    if (cd "$TSAN_BUILD_DIR" && export TSAN_OPTIONS="halt_on_error=1" \
          && ctest -L shmem --output-on-failure -j "$JOBS" \
          && ctest -R '^test_sim_engine$' --output-on-failure \
          && ctest -R '^test_ml_dataset$' --output-on-failure); then
      echo "shmem + engine + dataset generator TSan tests OK"
    else
      fail "ctest -L shmem / test_sim_engine / test_ml_dataset under TSan"
    fi
    # Observability acceptance run: 8 concurrent rank threads with flow
    # tracing on and the wall-clock NDJSON sampler racing them at 50ms,
    # under TSan — the sampler reads every counter the workers write, and
    # with a postmortem path it also renders the flight recorder's
    # trace_tail from the rings the workers are emitting into.
    note "malt_run 8-rank shmem + 50ms sampler (ThreadSanitizer)"
    if TSAN_OPTIONS="halt_on_error=1" "$TSAN_BUILD_DIR/tools/malt_run" \
         --app=svm --ranks=8 --epochs=3 --transport=shmem \
         --metrics_interval_ms=50 --metrics_stream=/tmp/malt_check_stream.ndjson \
         --postmortem_out=/tmp/malt_check_postmortem.ndjson \
         --trace_out=/tmp/malt_check_trace_shmem.json; then
      echo "TSan sampler run OK (stream: /tmp/malt_check_stream.ndjson)"
    else
      fail "malt_run shmem sampler run under TSan"
    fi
  else
    tail -40 /tmp/malt_check_tsan_build.log
    fail "TSan build"
  fi
fi

# --- 8. ASan build + full test suite ------------------------------------------
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-$REPO/build-asan}"
note "configure + build (MALT_SANITIZE=address) in $ASAN_BUILD_DIR"
if [ "$FAST" = 1 ]; then
  echo "(--fast: skipping the ASan stage)"
else
  if cmake -B "$ASAN_BUILD_DIR" -S "$REPO" -DMALT_SANITIZE=address >/dev/null \
     && cmake --build "$ASAN_BUILD_DIR" -j "$JOBS" \
          > /tmp/malt_check_asan_build.log 2>&1; then
    echo "ASan build OK"
    note "ctest (AddressSanitizer + LeakSanitizer)"
    if (cd "$ASAN_BUILD_DIR" && ASAN_OPTIONS="detect_leaks=1" \
          ctest --output-on-failure -j "$JOBS"); then
      echo "ASan tests OK"
    else
      fail "ctest under ASan"
    fi
  else
    tail -40 /tmp/malt_check_asan_build.log
    fail "ASan build"
  fi
fi

note "summary"
if [ "$failures" -ne 0 ]; then
  echo "check.sh: $failures stage(s) failed"
  exit 1
fi
echo "check.sh: all stages passed"
