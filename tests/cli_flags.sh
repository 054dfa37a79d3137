#!/bin/sh
# prts_cli must refuse a command line it would otherwise misread: a flag
# the subcommand never reads, or a value that is not a number where one
# is needed. Each case must exit 2 with a message on stderr, not run
# (exit 0) or abort. Usage: cli_flags.sh path/to/prts_cli
set -u
cli="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$cli" generate --seed 1 > "$dir/inst.txt" || exit 1
"$cli" generate --seed 1 --tasks 5 > "$dir/five.txt" || exit 1
failed=0

# refused <case> <stdin file> <args...>
refused() {
  name="$1"
  input="$2"
  shift 2
  "$cli" "$@" < "$input" > "$dir/out" 2> "$dir/err"
  status=$?
  if [ "$status" -ne 2 ] || [ ! -s "$dir/err" ]; then
    echo "FAIL $name: exit $status (want 2 with a message)" >&2
    failed=1
  fi
}

refused unknown-flags "$dir/inst.txt" solve --algo heur-p --vnodes 32 --elastic
refused misspelt-flag /dev/null serve - --peer 127.0.0.1:1 --no-input
refused not-a-number /dev/null generate --seed abc
refused trailing-garbage "$dir/inst.txt" solve --algo heur-p --period 300x
refused missing-number /dev/null generate --tasks
# Near-miss reuse is part of the cache; there is no switch for it.
refused serve-near-miss /dev/null serve - --near-miss off
refused campaign-near-miss /dev/null campaign - --via-service --near-miss on
# A malformed --mapping is refused with a message, never an abort.
refused mapping-not-a-number "$dir/five.txt" evaluate --mapping a:0
refused mapping-empty-id "$dir/five.txt" evaluate --mapping 4:0,,1
refused mapping-overflow "$dir/five.txt" evaluate \
    --mapping 99999999999999999999999:0
refused mapping-no-tiling "$dir/five.txt" evaluate --mapping '3:0;1:1;4:0'
refused mapping-negative "$dir/five.txt" evaluate --mapping '-1:0;4:1'

# The same subcommands still run with flags they do read.
"$cli" solve --algo heur-p --period inf --latency 2000 < "$dir/inst.txt" \
    > /dev/null || { echo "FAIL: a well-formed solve did not run" >&2
                     failed=1; }
"$cli" evaluate --mapping '1:0;4:1,2' < "$dir/five.txt" > /dev/null ||
  { echo "FAIL: a well-formed evaluate did not run" >&2; failed=1; }
exit "$failed"
