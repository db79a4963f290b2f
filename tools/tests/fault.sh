#!/bin/sh
# Fault injection and resilience checks (see DESIGN §6b).
#
# Usage: fault.sh <cchar-binary> <workdir> <case>
#   deterministic     faulted runs are byte-identical run to run
#   resilience_json   a faulted run reports plan, retransmits and
#                     router stalls in its resilience section
#   fault_free        a run without a plan carries no resilience key
#   lossy_replay      a trace replays to completion over a lossy link
set -eu
B=$1
rm -rf "$2"
mkdir -p "$2"
cd "$2"

case $3 in
deterministic)
    for plan in "drop:p=0.05" "drop:p=0.02; corrupt:p=0.005"; do
        for f in a.json b.json; do
            "$B" characterize 3d-fft --width 2 --height 2 \
                --fault-plan "$plan" --json 2>/dev/null > "$f"
        done
        cmp a.json b.json
    done
    ;;
resilience_json)
    "$B" characterize 3d-fft --width 2 --height 2 \
        --fault-plan "drop:p=0.01; router:1:stall=2us" --seed 3 \
        --json > faulted.json
    python3 - <<'EOF'
import json
d = json.load(open('faulted.json'))
r = d['resilience']
assert r['plan'].startswith('2 faults, seed 3'), r['plan']
assert r['retransmits'] >= r['deliveryFailures'], r
assert r['routerStalls'] > 0, r
EOF
    ;;
fault_free)
    "$B" characterize 1d-fft --width 2 --height 2 --json > plain.json
    python3 -c "import json; d = json.load(open('plain.json')); \
assert 'resilience' not in d, list(d)"
    ;;
lossy_replay)
    "$B" trace 3d-fft --out mg.trace --width 2 --height 2
    timeout 120 "$B" replay mg.trace --width 2 --height 2 \
        --fault-plan "drop:p=0.05"
    ;;
*)
    echo "fault.sh: unknown case '$3'" >&2
    exit 2
    ;;
esac
