#!/bin/sh
# The footprint check: `sh tools/footprint.sh EXE` fails if EXE links
# any unit of the paper's binding stack (Omf_pbio, Omf_machine,
# Omf_xml2wire), any unit of Cmdliner, Logs, Fmt or Stdlib's Format
# (the command line is Stdlib Arg, the log Omf_util.Log), or exports an
# OCaml symbol from its dynamic symbol table. `dune build @smoke` runs
# it on relayd, which only moves frames (doc/REACTOR.md §8). It needs
# nm(1) from binutils.
set -eu
exe=$1
# every linked unit defines its module block as a bare caml<Unit> symbol
linked=$(nm --defined-only "$exe" | awk '{ print $3 }')
units=$(echo "$linked" |
  grep -E '^caml(Omf_pbio|Omf_machine|Omf_xml2wire)__[A-Za-z0-9_]+$' || true)
cli=$(echo "$linked" |
  grep -E '^caml((Cmdliner|Logs|Fmt)(_[A-Za-z0-9_]+)?|Stdlib__Format)$' || true)
exported=$(nm -D --defined-only "$exe" | awk '{ print $3 }' |
  grep -c '^caml' || true)
status=0
if [ -n "$units" ]; then
  echo "footprint: $exe links the binding stack:" $units >&2
  status=1
fi
if [ -n "$cli" ]; then
  echo "footprint: $exe links a command-line or logging library:" $cli >&2
  status=1
fi
if [ "$exported" -ne 0 ]; then
  echo "footprint: $exe exports $exported caml* dynamic symbols" >&2
  status=1
fi
if [ $status -eq 0 ]; then
  echo "footprint: $exe links no binding, Cmdliner, Logs, Fmt or Format" \
    "unit and exports no caml* symbol"
fi
exit $status
