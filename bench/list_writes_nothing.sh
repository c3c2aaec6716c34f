#!/bin/sh
# Listing a bench's cases runs none of them, so it must exit 0 and leave its
# report directory empty: no BENCH_<name>.json that could overwrite a real
# report. Checks the --benchmark_list_tests flag and BENCHMARK_LIST_TESTS.
#
# usage: list_writes_nothing.sh <bench binary> <report dir>
set -u
bench=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
export MOG_BENCH_REPORT_DIR="$dir"
"$bench" --benchmark_list_tests || exit 1
BENCHMARK_LIST_TESTS=true "$bench" || exit 1
if [ -n "$(ls -A "$dir")" ]; then
  echo "listing the cases wrote:" $(ls -A "$dir")
  exit 1
fi
