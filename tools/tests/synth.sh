#!/bin/sh
# Synthesis loop checks (`cchar synth`; see DESIGN §6h). Each case
# first saves the `is` characterization as model.json.
#
# Usage: synth.sh <cchar-binary> <workdir> <case>
#   roundtrip           characterize, synthesize, re-characterize:
#                       the fidelity section holds the committed KS
#                       bounds (see tests/test_synth.cc)
#   scaled_1m           64 procs / 1M messages, byte-identical across
#                       two runs
#   bad_nprocs          a model with nprocs 0 exits 3 and names nprocs
#   synthetic_json      `characterize --synthetic --json` is one JSON
#                       document with the validation under "synthetic",
#                       and it still loads as a synth model
set -eu
B=$1
rm -rf "$2"
mkdir -p "$2"
cd "$2"

"$B" characterize is --json 2>/dev/null > model.json

case $3 in
roundtrip)
    "$B" synth model.json --json 2>replay.err > replay.json
    grep -q '"synthFidelity":{' replay.json
    grep -q 'KS temporal' replay.err
    python3 - <<'EOF'
import json
model = json.load(open('model.json'))
replay = json.load(open('replay.json'))
sf = replay['synthFidelity']
assert sf['modelSource'] == 'model.json', sf['modelSource']
assert sf['modelProcs'] == model['nprocs'] == 16
assert sf['scaleTiles'] == 1 and sf['seed'] == 42, sf
assert sf['temporalKs'] < 0.10, sf['temporalKs']
assert sf['spatialKs'] < 0.06, sf['spatialKs']
assert sf['volumeKs'] < 0.05, sf['volumeKs']
assert replay['nprocs'] == 16
# A plain characterization carries no fidelity section.
assert 'synthFidelity' not in model
EOF
    ;;
scaled_1m)
    # The two runs are independent processes; running them side by
    # side halves the wall time without weakening the identity check.
    "$B" synth model.json --scale-procs 64 --messages 1000000 \
        --json > big-a.json &
    pid=$!
    "$B" synth model.json --scale-procs 64 --messages 1000000 \
        --json > big-b.json
    wait "$pid"
    cmp big-a.json big-b.json
    python3 - <<'EOF'
import json
d = json.load(open('big-a.json'))
sf = d['synthFidelity']
assert d['nprocs'] == 64 and sf['scaleTiles'] == 4, sf
assert sf['syntheticMessages'] >= 1000000 - 64, sf
assert sf['temporalSources'] == 64, sf
EOF
    ;;
bad_nprocs)
    sed 's/"nprocs":16/"nprocs":0/' model.json > bad.json
    code=0
    "$B" synth bad.json 2>err.txt || code=$?
    test "$code" -eq 3 || { echo "expected exit 3, got $code"; exit 1; }
    grep -q 'nprocs' err.txt
    ;;
synthetic_json)
    "$B" characterize is --synthetic --json 2>/dev/null > validated.json
    python3 - <<'EOF'
import json
v = json.load(open('validated.json'))['synthetic']
assert abs(v['latencyError'] - 0.433) < 0.001, v
assert v['latencyMean'] > 0 and 0 < v['temporalKs'] < 1, v
assert 'synthetic' not in json.load(open('model.json'))
EOF
    "$B" synth validated.json > /dev/null 2>&1
    ;;
*)
    echo "synth.sh: unknown case '$3'" >&2
    exit 2
    ;;
esac
