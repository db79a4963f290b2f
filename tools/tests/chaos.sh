#!/bin/sh
# Chaos campaign checks (see src/sweep/chaos.hh): a fixed-seed
# campaign is byte-identical across worker counts, its failing plans
# shrink to minimal plans, and a shrunk plan reproduces its failure
# through the standalone CLI.
#
# Usage: chaos.sh <cchar-binary> <workdir> <case>
#   deterministic   -j1 vs -j8 byte identity plus the shrink asserts
#   shrunk_replay   a shrunk deadlock-class plan still exits 4
set -eu
B=$1
rm -rf "$2"
mkdir -p "$2"
cd "$2"

run() {
    "$B" chaos --seed 7 --plans 6 --apps 3d-fft \
        --procs 16 --json -j"$1" 2>/dev/null > "chaos-j$1.json"
}

case $3 in
deterministic)
    run 1
    run 8
    cmp chaos-j1.json chaos-j8.json
    python3 - <<'EOF'
import json
d = json.load(open('chaos-j1.json'))
classes = d['classes']
assert sum(classes.values()) == len(d['jobs']), classes
assert d['failing'] >= 1, "seed 7 must seed a failing plan"
shrunk = [j for j in d['jobs'] if 'shrunk_plan' in j]
assert len(shrunk) == d['failing'], (len(shrunk), d['failing'])
assert any(j['shrunk_faults'] <= 2 for j in shrunk), \
    "no failing plan shrank to <= 2 fault entries"
for j in shrunk:
    assert j['shrunk_faults'] >= 1 and j['shrunk_plan'], j
EOF
    ;;
shrunk_replay)
    run 1
    python3 - "$B" <<'EOF'
import json, subprocess, sys
d = json.load(open('chaos-j1.json'))
deadlocked = [j for j in d['jobs']
              if j['classification'] == 'deadlock']
assert deadlocked, "seed 7 must seed a deadlock-class plan"
j = deadlocked[0]
p = subprocess.run(
    [sys.argv[1], 'characterize', j['app'],
     '--width', '4', '--height', '4',
     '--fault-plan', j['shrunk_plan']],
    capture_output=True)
assert p.returncode == 4, (j['shrunk_plan'], p.returncode)
EOF
    ;;
*)
    echo "chaos.sh: unknown case '$3'" >&2
    exit 2
    ;;
esac
