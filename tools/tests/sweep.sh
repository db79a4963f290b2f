#!/bin/sh
# Sweep orchestration checks (see DESIGN §6c and §6f). The worker
# smoke and the -j1/-j8 identity also run under ThreadSanitizer
# (ctest -L sweep), where they race the worker pool on mixed
# dynamic/static, healthy/faulted matrices. Faulted ccnuma jobs fail
# (exit 1) by design; only the report bytes matter there.
#
# Usage: sweep.sh <cchar-binary> <workdir> <case>
#   hang_quarantine   --job-timeout turns a stall into a quarantined
#                     deadline-exceeded job; the sweep exits 6
#   sigterm_resume    SIGTERM a journaled 32-job sweep mid-flight
#                     (exit 7, no partial aggregate), resume it, and
#                     require the uninterrupted run's bytes
#   worker_smoke      a mixed matrix on 4 workers
#   j1_j8_identity    worker scheduling never leaks into the report
#   synthetic_faults  --synthetic leaves a faulted job's fault columns
#                     as they are without it: the model replay is
#                     fault-free
set -eu
B=$1
rm -rf "$2"
mkdir -p "$2"
cd "$2"

case $3 in
hang_quarantine)
    for t in 0.3 0.5; do
        code=0
        timeout 120 "$B" sweep --apps diag-spin,is --procs 4 --loads 0.2 \
            --seeds 1 --job-timeout "$t" --job-retries 1 \
            --out "hang-$t.json" 2>/dev/null || code=$?
        test "$code" -eq 6 || {
            echo "job-timeout $t: expected exit 6, got $code"
            exit 1
        }
        python3 - "hang-$t.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
by_app = {j['app']: j for j in d['jobs']}
spin = by_app['diag-spin']
assert spin['status'] == 'deadline-exceeded', spin
assert spin['quarantined'] and spin['attempts'] == 2, spin
ok = by_app['is']
assert ok['status'] == 'ok' and ok['verified'], ok
assert len(d['degraded']) == 1, d.get('degraded')
assert d['degraded'][0]['app'] == 'diag-spin'
EOF
    done
    ;;
sigterm_resume)
    SWEEP="--apps is,mg --procs 4,8 --loads 0.1,0.2,0.3,0.4 --seeds 1..2 -j2"
    "$B" sweep $SWEEP --out ref.json --csv ref.csv
    "$B" sweep $SWEEP --journal run.jsonl --out cut.json &
    pid=$!
    sleep 1
    kill -TERM "$pid"
    code=0
    wait "$pid" || code=$?
    test "$code" -eq 7 || { echo "expected exit 7, got $code"; exit 1; }
    test ! -f cut.json || { echo "partial aggregate written"; exit 1; }
    "$B" sweep $SWEEP --resume run.jsonl --out resumed.json --csv resumed.csv
    cmp ref.json resumed.json
    cmp ref.csv resumed.csv
    ;;
worker_smoke)
    "$B" sweep --apps is,sor,3d-fft --procs 4 --loads 1,2 --seeds 0,7 \
        --fault-plan none --fault-plan "drop:p=0.001" -j 4 \
        --out sweep-tsan.json || [ $? -eq 1 ]
    ;;
j1_j8_identity)
    for j in 1 8; do
        "$B" sweep --apps is,3d-fft --procs 4,16 --seeds 0,7 \
            --fault-plan none --fault-plan "drop:p=0.001" -j "$j" \
            --out "sweep-j$j.json" --csv "sweep-j$j.csv" || [ $? -eq 1 ]
    done
    cmp sweep-j1.json sweep-j8.json
    cmp sweep-j1.csv sweep-j8.csv
    ;;
synthetic_faults)
    "$B" sweep --apps mg --procs 16 --fault-plan drop:p=0.01 \
        --csv plain.csv > /dev/null 2>&1
    "$B" sweep --apps mg --procs 16 --fault-plan drop:p=0.01 --synthetic \
        --csv synthetic.csv > /dev/null 2>&1
    python3 - <<'EOF'
import csv
plain, synth = (next(csv.DictReader(open(f + '.csv')))
                for f in ('plain', 'synthetic'))
assert int(plain['dropped_packets']) > 0, plain
for col in ('dropped_packets', 'corrupted_packets', 'link_drops',
            'rerouted_packets'):
    assert plain[col] == synth[col], (col, plain[col], synth[col])
assert float(synth['synth_temporal_ks']) > 0, synth
EOF
    ;;
*)
    echo "sweep.sh: unknown case '$3'" >&2
    exit 2
    ;;
esac
