#!/bin/sh
# Run a command that must be refused as a usage error: it has to exit with
# status 2 and print a diagnostic on stderr. The CLI argument ctests use it.
#
#   sh tools/expect_usage_error.sh BINARY [ARGS...]
msg="$("$@" 2>&1 >/dev/null)"
status=$?
if [ "$status" -ne 2 ]; then
  echo "expected exit status 2, got $status: $*" >&2
  exit 1
fi
if [ -z "$msg" ]; then
  echo "no diagnostic on stderr: $*" >&2
  exit 1
fi
printf '%s\n' "$msg"
