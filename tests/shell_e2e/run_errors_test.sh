#!/usr/bin/env bash
# End-to-end error-path shell test: pipes input_errors.txt through
# pvcdb_shell -- malformed insert / setprob / delete / view / load / show
# arguments, bad SQL and an unknown command -- and diffs the transcript
# against expected_errors.txt. Every rejected command must print its
# diagnostic and leave the session running; the closing `tables` line
# proves no rejected mutation touched the table.
#
# Usage: run_errors_test.sh <path-to-pvcdb_shell> <repo-root>
set -u

shell_bin="$1"
src_dir="$2"
here="$src_dir/tests/shell_e2e"
cd "$src_dir" || exit 2

actual="$("$shell_bin" < "$here/input_errors.txt")"
status=$?
expected="$(cat "$here/expected_errors.txt")"

if [ "$status" -ne 0 ]; then
  echo "shell exited with status $status"
  exit 1
fi
if [ "$actual" != "$expected" ]; then
  echo "shell transcript differs from expected:"
  diff -u <(printf '%s\n' "$expected") <(printf '%s\n' "$actual")
  exit 1
fi
echo "error-path shell transcript matches"
exit 0
