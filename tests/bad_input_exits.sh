#!/bin/sh
# Bad input must end in a one-line error and exit code 2, never in a signal
# (an uncaught exception aborts with 134).
#
#   bad_input_exits.sh QUICKSTART PRECISION_TRADEOFF OPTIMIZATION_EXPLORER \
#                      MOGCLI MULTICAM SURVEILLANCE \
#                      BENCH_FIG8_SPEEDUP BENCH_SERVE BENCH_PROBE
#
# The flag-driven examples get an unknown flag; surveillance gets a frame
# count and a fault rate that are not numbers; the benches get a frame width
# below the 16-pixel minimum.
status=0
expect_exit_2() {
  "$@" > /dev/null 2>&1
  rc=$?
  if [ "$rc" -gt 128 ]; then
    echo "FAIL: '$*' died by signal $((rc - 128))"
    status=1
  elif [ "$rc" -ne 2 ]; then
    echo "FAIL: '$*' exited $rc, want 2"
    status=1
  else
    echo "ok: '$*' exited 2"
  fi
}
for example in "$1" "$2" "$3" "$4" "$5"; do
  expect_exit_2 "$example" --no-such-flag
done
expect_exit_2 "$6" 3x
expect_exit_2 "$6" 3 . banana
for bench in "$7" "$8"; do
  expect_exit_2 env MOG_BENCH_WIDTH=0 MOG_BENCH_NO_REPORT=1 "$bench"
done
expect_exit_2 env MOG_PROBE_WIDTH=0 MOG_BENCH_NO_REPORT=1 "$9"
exit "$status"
