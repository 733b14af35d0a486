#!/usr/bin/env bash
# Pre-merge gate for ulsocks (see DESIGN.md "Correctness tooling"):
#   1. Debug build with AddressSanitizer + UndefinedBehaviorSanitizer,
#      full ctest suite (protocol invariant checkers are always on).  Every
#      heap block starts filled with 0xa5, not just its first 4 KiB, so a
#      read of bytes nothing wrote (registered buffers are not zero-filled)
#      moves a pinned digest instead of reading a fresh page's zeros.
#   2. clang-tidy over src/ with the repo's .clang-tidy profile.
#   3. ulsan, the repo-specific static-analysis suite (python3 -m ulsan
#      src): determinism, shard affinity, coroutine lifetime, layering,
#      wire hygiene.  Fails on any unsuppressed finding or an unused
#      suppression (DESIGN.md §12).
#   4. Figures: every bench/ binary (one per bench/*.cpp except the
#      harness) runs at the size EXPERIMENTS.md reports, "$JOBS" at a time
#      in the sanitized tree; each must emit its BENCH_<name>.json, and
#      every one must pass scripts/validate_bench_json.py.  Then
#      scripts/check_figures.py refills EXPERIMENTS.md's bench blocks from
#      the binaries' stdout and asserts the paper's shape claims over the
#      JSON; a block that changed (named, and left refilled for commit) or
#      a failed claim fails the stage.  About 45 s on 4 vCPUs, most of it
#      fig13_microbench.
#   5. Benchmark smoke and seed-1 pins: python3 benchmark/run.py --smoke
#      builds the Release benchmark drivers, runs all five workloads at 1%
#      size (every payload byte is verified) and checks the result schema
#      against BENCHMARK.json.  Then python3 benchmark/run.py --seed 1
#      --seconds 0 --trace 0 runs each workload at full size for its two
#      minimum timed reps and compares every simulated output (events, end
#      time, digests, served counts) with benchmark/expected_seed1.json;
#      any mismatch fails, so a host-side change cannot move a simulated
#      value unnoticed.  About 10 s once the smoke build exists.
#
# No stage gates on host speed.  Simulator speed is measured by benchmark/
# (python3 benchmark/run.py; benchmark/compare.py A B pairs two result sets).
#
# Usage: scripts/check.sh [build-dir] [--require-tools]
#   build-dir        build tree to use (default: build-check)
#   --require-tools  a missing optional tool (clang-tidy) is a hard
#                    failure instead of a skip-with-warning.  Defaults ON
#                    when $CI is set, so CI never silently loses a stage.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="build-check"
REQUIRE_TOOLS="${CI:+1}"
for arg in "$@"; do
  case "$arg" in
    --require-tools) REQUIRE_TOOLS=1 ;;
    --*) echo "check.sh: unknown flag '$arg'" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
JOBS="$(nproc 2>/dev/null || echo 4)"
TOTAL=5

echo "==> [1/$TOTAL] Debug + ASan/UBSan build and test"
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DULSOCKS_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j "$JOBS"
# halt_on_error makes any sanitizer report fail the test that produced it;
# malloc_fill_byte with an unbounded max_malloc_fill_size poisons the whole
# of every fresh heap block.
ASAN_OPTIONS=halt_on_error=1:malloc_fill_byte=165:max_malloc_fill_size=2147483647 \
  UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

if command -v clang-tidy >/dev/null 2>&1; then
  TIDY_VERSION="$(clang-tidy --version | sed -n 's/.*version */version /p' | head -n1)"
  echo "==> [2/$TOTAL] clang-tidy (${TIDY_VERSION:-version unknown})"
  mapfile -t SOURCES < <(find src -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "$BUILD_DIR" -quiet "${SOURCES[@]}"
  else
    clang-tidy -p "$BUILD_DIR" --quiet "${SOURCES[@]}"
  fi
elif [ -n "$REQUIRE_TOOLS" ]; then
  echo "==> [2/$TOTAL] clang-tidy"
  echo "ERROR: clang-tidy not installed and --require-tools is set" >&2
  exit 1
else
  echo "==> [2/$TOTAL] clang-tidy"
  echo "WARNING: clang-tidy not installed; skipping static analysis" >&2
  echo "         (pass --require-tools to make this a failure)" >&2
fi

echo "==> [3/$TOTAL] ulsan static-analysis suite"
PYTHONPATH="$PWD/scripts${PYTHONPATH:+:$PYTHONPATH}" python3 -m ulsan src

echo "==> [4/$TOTAL] figures: every bench, results schema, EXPERIMENTS.md tables and shape claims"
FIG_DIR="$BUILD_DIR/figures"
rm -rf "$FIG_DIR"
mkdir -p "$FIG_DIR"
BENCHES=()
for src in bench/*.cpp; do
  name="$(basename "$src" .cpp)"
  [ "$name" = harness ] || BENCHES+=("$name")
done
# xargs exits non-zero if any binary does.
printf '%s\n' "${BENCHES[@]}" | xargs -P "$JOBS" -I{} \
  sh -c '"$1/bench/$2" --out "$3" >"$3/$2.md"' sh "$BUILD_DIR" {} "$FIG_DIR"
for name in "${BENCHES[@]}"; do
  [ -f "$FIG_DIR/BENCH_$name.json" ] ||
    { echo "ERROR: bench/$name wrote no BENCH_$name.json" >&2; exit 1; }
done
python3 scripts/validate_bench_json.py "$FIG_DIR"/BENCH_*.json
python3 scripts/check_figures.py "$FIG_DIR"
echo "figures: ${#BENCHES[@]} binaries, every BENCH_*.json valid, EXPERIMENTS.md current"

echo "==> [5/$TOTAL] benchmark smoke (Release drivers, payload checks, result schema) and seed-1 pins"
# Exits non-zero on a build failure, a failed payload check or a result
# that does not match BENCHMARK.json.  Release-only defects surface here.
# The per-workload report is long, so it is shown only on failure.
SMOKE_LOG="$BUILD_DIR/benchmark-smoke.log"
python3 benchmark/run.py --smoke >"$SMOKE_LOG" || { cat "$SMOKE_LOG"; exit 1; }
grep '^smoke:' "$SMOKE_LOG"
# The smoke run never compares simulated outputs with the pinned seed-1
# values; a non-smoke seed-1 run does, and exits 1 on any mismatch.  No
# timing is judged here: --seconds 0 keeps only the minimum reps.
PINS_LOG="$BUILD_DIR/benchmark-pins.log"
python3 benchmark/run.py --seed 1 --seconds 0 --trace 0 >"$PINS_LOG" ||
  { grep -v '^\[' "$PINS_LOG"; exit 1; }
echo "seed-1 pins: every workload matches benchmark/expected_seed1.json"

echo "==> all checks passed"
