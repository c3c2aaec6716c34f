#!/bin/sh
# Symbol isolation of the per-level kernel builds (see
# src/mog/gpusim/isa_ns.hpp).
#
#   check_isa_symbols.sh NM NAMESPACE=OBJ[;OBJ...] [NAMESPACE=OBJ...]...
#
# Every code symbol (nm types T, W and i: functions, template instances,
# inline functions, thread_local init and wrapper functions) that a level's
# objects define must name that level's namespace. Then no two levels
# define the same symbol, and the linker cannot hand one level's copy to
# code built for another. Exits 1 and lists the offenders otherwise.
set -u
nm=$1
shift
status=0
for spec in "$@"; do
  ns=${spec%%=*}
  objs=$(printf '%s' "${spec#*=}" | tr ';' ' ')
  # shellcheck disable=SC2086  # the object list is meant to split
  syms=$("$nm" -A -C --defined-only $objs) || {
    echo "$ns: nm failed on $objs"
    status=1
    continue
  }
  code=$(printf '%s\n' "$syms" | awk '$2 ~ /^[TWi]$/')
  if ! printf '%s\n' "$code" | grep -q -- "$ns::"; then
    echo "$ns: no code symbol names the namespace (wrong objects?)"
    status=1
  fi
  bad=$(printf '%s\n' "$code" | grep -v -- "$ns::")
  if [ -n "$bad" ]; then
    echo "$ns: code symbols outside the level's namespace:"
    printf '%s\n' "$bad"
    status=1
  else
    echo "$ns: $(printf '%s\n' "$code" | wc -l) code symbols, all in $ns"
  fi
done
exit $status
