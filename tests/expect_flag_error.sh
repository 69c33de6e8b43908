#!/bin/sh
# Passes when a command refuses its command line: it must exit 2 and name
# NEEDLE on stderr.
#
#   tests/expect_flag_error.sh NEEDLE COMMAND [ARG...]
needle=$1
shift
err=$("$@" 2>&1 >/dev/null </dev/null)
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 from '$*', got $rc: $err" >&2
  exit 1
fi
case "$err" in
  *"$needle"*) exit 0 ;;
esac
echo "'$*' did not name '$needle' on stderr: $err" >&2
exit 1
