#!/usr/bin/env bash
# Static and idle footprint of the three daemons in each build tree:
#
#   bash bench/footprint.sh TREE...
#
# For relayd, registryd and metaserver under TREE/_build/default/bin
# (build them first): size(1) text+data in bytes, the number of
# .dynsym entries, and idle resident memory in KiB, split by
# /proc/<pid>/smaps into the executable's own pages, shared libraries
# and anonymous memory (heap, stacks, anonymous maps; [vdso]/[vvar] are
# left out). Each daemon starts on ephemeral ports and is read 0.5 s
# after its start, three times; the RSS columns are the median of the
# three totals, with that start's split. Linux only; needs binutils.
set -euo pipefail

start() { # tree name: start one idle daemon, print its pid
  local tree=$1 bin=$1/_build/default/bin
  case $2 in
    relayd) "$bin/relayd.exe" --port 0 >/dev/null 2>&1 & ;;
    registryd) "$bin/registryd.exe" --port 0 >/dev/null 2>&1 & ;;
    metaserver) "$bin/metaserver.exe" "$tree/schemas" --port 0 >/dev/null 2>&1 & ;;
  esac
  echo $!
}

rss_split() { # pid exe: "total exe lib anon" in KiB
  awk -v exe="$2" '
    /^[0-9a-f]+-[0-9a-f]+ / { path = $6; next }
    /^Rss:/ {
      if (path == exe) e += $2
      else if (path ~ /\.so/) l += $2
      else if (path == "" || path ~ /^\[(heap|stack|anon)/) a += $2
    }
    END { printf "%d %d %d %d\n", e + l + a, e, l, a }' "/proc/$1/smaps"
}

printf '%-10s %-10s %10s %7s %8s %8s %8s %8s\n' tree binary text+data \
  dynsym rss_kib exe_kib lib_kib anon_kib
for tree in "$@"; do
  tree=$(cd "$tree" && pwd)
  for name in relayd registryd metaserver; do
    exe=$(readlink -f "$tree/_build/default/bin/$name.exe")
    td=$(size "$exe" | awk 'NR == 2 { print $1 + $2 }')
    dynsym=$(readelf --dyn-syms -W "$exe" | grep -cE '^ +[0-9]+:')
    samples=()
    for _ in 1 2 3; do
      pid=$(start "$tree" "$name")
      sleep 0.5
      samples+=("$(rss_split "$pid" "$exe")")
      kill -TERM "$pid"
      wait "$pid" 2>/dev/null || true
    done
    read -r total e l a < <(printf '%s\n' "${samples[@]}" | sort -n | sed -n 2p)
    printf '%-10s %-10s %10d %7d %8d %8d %8d %8d\n' "$(basename "$tree")" \
      "$name" "$td" "$dynsym" "$total" "$e" "$l" "$a"
  done
done
