#!/usr/bin/env bash
# CPU and parks per operation for each thread role of a lifebench run,
# read from outside the process.
#
#   scripts/lifebench-roles.sh BIN WORKLOAD [SECONDS [SEED]]
#
# Runs the lifebench binary BIN with `--trace 0` (SECONDS defaults to
# 30, SEED to 1) and samples /proc/<pid>/task/*/{comm,schedstat,status}
# every ~20 ms, keeping each thread's last reading. When the run ends it
# prints, for each thread name with its trailing digits folded into `*`
# (`client-*`, `mvedsua-variant`, `mvedsua-followe`: the kernel keeps 15
# bytes of a name), the number of threads, their on-CPU µs and their
# voluntary context switches per attempted operation. A voluntary
# switch is a park: the thread blocked on a futex or slept.
#
# The counts cover the whole run (set-up, both windows, the updates and
# the Redis transforms), and a thread's work in the last ~20 ms before
# it exits is missed. Only /proc is read; lifebench is not changed.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 BIN WORKLOAD [SECONDS [SEED]]" >&2
    exit 2
fi
bin=$1 workload=$2 seconds=${3:-30} seed=${4:-1}
log=$(mktemp)
samples=$(mktemp)
trap 'rm -f "$log" "$samples"' EXIT
"$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$log" 2> /dev/null &
pid=$!
while kill -0 "$pid" 2> /dev/null; do
    # One line per thread: tid, name, on-CPU ns, voluntary switches. A
    # thread that exits mid-sample can fail the whole sample; the next
    # one comes 20 ms later.
    awk -v OFS='\t' '
        FNR == 1 { n = split(FILENAME, part, "/"); tid = part[n - 1]; file = part[n] }
        file == "comm" { name[tid] = $0 }
        file == "schedstat" { cpu[tid] = $1 }
        file == "status" && $1 == "voluntary_ctxt_switches:" { vol[tid] = $2 }
        END { for (t in vol) if ((t in name) && (t in cpu)) print t, name[t], cpu[t], vol[t] }
    ' /proc/"$pid"/task/*/comm /proc/"$pid"/task/*/schedstat /proc/"$pid"/task/*/status \
        >> "$samples" 2> /dev/null || true
    sleep 0.02
done
wait "$pid"
attempted=$(sed -n 's/^attempted=\([0-9]*\).*/\1/p' "$log")
if [ -z "$attempted" ] || [ "$attempted" = 0 ]; then
    echo "$0: the run attempted no operation" >&2
    exit 1
fi
echo "$workload seed $seed, ${seconds} s: $(grep '^attempted=' "$log")"
awk -F '\t' -v ops="$attempted" '
    { name[$1] = $2; cpu[$1] = $3; vol[$1] = $4 }
    END {
        for (t in name) {
            role = name[t]
            sub(/[0-9]+$/, "*", role)
            threads[role]++
            rcpu[role] += cpu[t]
            rvol[role] += vol[t]
            tcpu += cpu[t]
            tvol += vol[t]
        }
        printf "%-16s %7s %12s %14s\n", "role", "threads", "cpu_us/op", "parks/op"
        for (role in threads)
            printf "%-16s %7d %12.3f %14.4f\n", role, threads[role], rcpu[role] / 1000 / ops, rvol[role] / ops
        printf "%-16s %7d %12.3f %14.4f\n", "total", length(name), tcpu / 1000 / ops, tvol / ops
    }
' "$samples"
