#!/bin/sh
# Bad input must end in an error message and exit code 2, never in a signal
# (an uncaught exception aborts with 134) or in the code a binary keeps for
# a real failure (bench_gate's failed gate, a fixture write error).
#
#   bad_input_exits.sh WORK_DIR QUICKSTART PRECISION_TRADEOFF \
#                      OPTIMIZATION_EXPLORER MOGCLI MULTICAM SURVEILLANCE \
#                      BENCH_PROBE BENCH_GATE MOGPROF MAKE_INGEST_FIXTURES \
#                      BENCH...
#
# WORK_DIR is a directory in the build tree; every path a binary is handed
# lies inside it. The flag-driven examples get an unknown flag; surveillance
# gets a frame count and a fault rate that are not numbers; the tools get an
# unknown flag, a value that is not a number or a file that does not exist;
# every google-benchmark BENCH gets an unknown flag, a filter that does not
# compile, a filter that selects no case and an unknown output format (by
# flag and by google-benchmark's environment default), and the first two
# BENCHes and bench_probe a frame width below the 16-pixel minimum. The
# flag-driven examples, the tools and the benches must say why in exactly
# one line.
status=0
out_file=""
run() {
  "$@" > "$out_file" 2>&1
  rc=$?
  if [ "$rc" -gt 128 ]; then
    echo "FAIL: '$*' died by signal $((rc - 128))"
    status=1
    return 1
  elif [ "$rc" -ne 2 ]; then
    echo "FAIL: '$*' exited $rc, want 2"
    status=1
    return 1
  fi
  return 0
}
expect_exit_2() {
  run "$@" && echo "ok: '$*' exited 2"
}
expect_one_line_exit_2() {
  run "$@" || return
  lines=$(wc -l < "$out_file")
  if [ "$lines" -ne 1 ]; then
    echo "FAIL: '$*' printed $lines lines, want 1:"
    cat "$out_file"
    status=1
  else
    echo "ok: '$*' exited 2: $(cat "$out_file")"
  fi
}

work="$1"
shift
mkdir -p "$work" || exit 1
out_file="$work/output.txt"

for example in "$1" "$2" "$3" "$4" "$5"; do
  expect_one_line_exit_2 "$example" --no-such-flag
done
expect_exit_2 "$6" 3x
expect_exit_2 "$6" 3 . banana
probe="$7"
gate="$8"
mogprof="$9"
shift 9
fixtures="$1"
shift

expect_exit_2 env MOG_PROBE_WIDTH=0 MOG_BENCH_NO_REPORT=1 "$probe"
expect_one_line_exit_2 "$probe" --no-such-flag
expect_one_line_exit_2 "$gate" --no-such-flag
expect_one_line_exit_2 "$gate" "$work/no_such_baseline.json" \
  "$work/no_such_fresh.json"
expect_one_line_exit_2 "$mogprof" --no-such-flag
expect_one_line_exit_2 "$mogprof" "$work/no_such_dump.json"
expect_one_line_exit_2 "$mogprof" --flame "$work/no_such_dump.json" --top x
expect_one_line_exit_2 "$fixtures" --no-such-flag
expect_one_line_exit_2 "$fixtures" --golden "$work/fixtures" --frames abc

expect_exit_2 env MOG_BENCH_WIDTH=0 MOG_BENCH_NO_REPORT=1 "$1"
expect_exit_2 env MOG_BENCH_WIDTH=0 MOG_BENCH_NO_REPORT=1 "$2"
for bench in "$@"; do
  expect_one_line_exit_2 env MOG_BENCH_NO_REPORT=1 "$bench" --no-such-flag
  expect_one_line_exit_2 env MOG_BENCH_NO_REPORT=1 "$bench" \
    "--benchmark_filter=["
  expect_one_line_exit_2 env MOG_BENCH_NO_REPORT=1 "$bench" \
    "--benchmark_filter=^no_such_case$"
  expect_one_line_exit_2 env MOG_BENCH_NO_REPORT=1 "$bench" \
    --benchmark_format=bad
  expect_one_line_exit_2 env MOG_BENCH_NO_REPORT=1 "$bench" \
    --benchmark_out_format=bad
  expect_one_line_exit_2 env MOG_BENCH_NO_REPORT=1 BENCHMARK_FORMAT=bad \
    "$bench"
  expect_one_line_exit_2 env MOG_BENCH_NO_REPORT=1 BENCHMARK_OUT_FORMAT=bad \
    "$bench"
done
exit "$status"
