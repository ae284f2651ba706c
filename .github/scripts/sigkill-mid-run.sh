#!/usr/bin/env bash
# SIGKILL a journaled run once its journal holds a record, and fail unless
# the kill landed mid-run, leaving 0 < k < N records.
#
#   .github/scripts/sigkill-mid-run.sh JOURNAL N COMMAND...
#
# JOURNAL is the run's --journal file: a header line, then one line per
# completed task.  N is the run's task count.  Waits at most 120 s for the
# first record.
set -u
journal=$1 total=$2
shift 2
rm -f "$journal"
"$@" > /dev/null &
pid=$!
for _ in $(seq 1200); do
  if [ -f "$journal" ] && [ "$(wc -l < "$journal")" -gt 1 ]; then
    break
  fi
  kill -0 "$pid" 2> /dev/null || break
  sleep 0.1
done
kill -KILL "$pid" 2> /dev/null
wait "$pid" 2> /dev/null
records=0
if [ -f "$journal" ]; then
  records=$(( $(wc -l < "$journal") - 1 ))
fi
echo "killed with $records of $total tasks journaled"
if [ "$records" -le 0 ] || [ "$records" -ge "$total" ]; then
  echo "the SIGKILL did not land mid-run" >&2
  exit 1
fi
