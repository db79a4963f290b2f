#!/bin/sh
# Golden digests of the characterization run path: the SHA-256 of
# stdout (and of --out / --csv / --journal files) for characterize,
# replay, synth and sweep runs whose bytes the perfbench digests do not
# pin, plus each run's exit code. A sweep resumed from a two-record
# prefix of the journal must match the uninterrupted run. Every listed
# output is deterministic (wall-clock gauges blanked); a digest
# change means the run path changed what it computes or prints.
#
# Usage: run_path_golden.sh <cchar-binary> <workdir> [--print]
#   --print  write the observed listing to stdout instead of checking
#            it (to re-bless after an intended output change)
set -eu

B=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
D=$2
MODE=${3:-check}
rm -rf "$D"
mkdir -p "$D"
cd "$D"

: > observed.txt

# digest NAME FILE: record the SHA-256 of FILE under NAME.
digest() {
    echo "$1 $(sha256sum < "$2" | cut -d' ' -f1)" >> observed.txt
}

# digest_journal NAME FILE: digest a sweep journal with each record's
# desim.events_per_sec gauge blanked. That gauge is a wall-clock rate;
# every other journal byte is deterministic.
digest_journal() {
    sed 's/"desim\.events_per_sec":"[^"]*"/"desim.events_per_sec":"-"/g' \
        "$2" > "$2.norm"
    digest "$1" "$2.norm"
}

# digest_metrics NAME FILE: digest a --metrics-out document with its
# wall-clock desim.events_per_sec gauge blanked.
digest_metrics() {
    sed 's/"desim\.events_per_sec":[0-9][0-9.e+-]*/"desim.events_per_sec":"-"/g' \
        "$2" > "$2.norm"
    digest "$1" "$2.norm"
}

# run NAME ARGS...: run cchar, record its stdout digest and exit code.
run() {
    name=$1
    shift
    rc=0
    "$B" "$@" > "$name.stdout" 2> "$name.stderr" || rc=$?
    digest "$name" "$name.stdout"
    echo "$name.rc $rc" >> observed.txt
}

run is_sinks characterize is --link-stats --rank-activity
run mg_sinks characterize mg --link-stats --rank-activity
run is_down characterize is --fault-plan 'link:5->6:down'
run mg_down characterize mg --fault-plan 'link:5->6:down'
run is_metrics characterize is --metrics-out is_metrics.json
run mg_metrics characterize mg --metrics-out mg_metrics.json
# The replay's own outputs: its process lanes in the Chrome trace, the
# telemetry sampler on it (HTML report and metrics) and its replay.*
# metrics.
run mg_traceout characterize mg --trace-out mg_traceout.json \
    --metrics-out mg_traceout_metrics.json
digest mg_traceout.json mg_traceout.json
digest_metrics mg_traceout_metrics.json mg_traceout_metrics.json
run mg_sampled characterize mg --sample-period 10 \
    --report-out mg_sampled.html --metrics-out mg_sampled_metrics.json
digest mg_sampled.html mg_sampled.html
digest_metrics mg_sampled_metrics.json mg_sampled_metrics.json

run mg_trace trace mg --out mg.trace
digest mg_trace.file mg.trace
run mg_replay replay mg.trace
run mg_replay_drop replay mg.trace --fault-plan drop:p=0.01

run is_model characterize is --json
run synth_sinks synth is_model.stdout --link-stats --rank-activity
# Windowed pacing with phase-scaled gaps (the --phases model has a
# phase schedule), and open-loop pacing at twice the offered load.
run is_phases_model characterize is --phases --json
run synth_paced synth is_phases_model.stdout --max-outstanding 4 \
    --use-phases --phases --json
run synth_scaled synth is_model.stdout --time-scale 0.5 --json

SWEEP="--apps is,mg --procs 16 --fault-plan none --fault-plan drop:p=0.01
       --link-stats --rank-activity --synthetic"
# shellcheck disable=SC2086
run sweep sweep $SWEEP --out sweep.json --csv sweep.csv \
    --journal sweep.jsonl
digest sweep.json sweep.json
digest sweep.csv sweep.csv
digest_journal sweep.jsonl sweep.jsonl

# Resume from the header plus the first two records: the merged
# report must reproduce the uninterrupted sweep.json / sweep.csv, and
# the completed journal the uninterrupted one.
head -n 3 sweep.jsonl > resume.jsonl
# shellcheck disable=SC2086
run resume sweep $SWEEP --resume resume.jsonl --out resume.json \
    --csv resume.csv
digest resume.json resume.json
digest resume.csv resume.csv
digest_journal resume.jsonl resume.jsonl

if [ "$MODE" = "--print" ]; then
    cat observed.txt
    exit 0
fi

cat > expected.txt <<'EOF'
is_sinks 3001a13b2eb5b194e26fb1ca316e24d3e9df140dc31a9ac3541f37c73bdc276b
is_sinks.rc 0
mg_sinks 5d92e2945117aca8c16aae22af11c38198905abc98c43acef3b4655640fec503
mg_sinks.rc 0
is_down df86c5d235d117e9183a71df01be015454bf6252d87adc661a16a4f1d26f8cd4
is_down.rc 0
mg_down e2d89d69dc1756bb26c05d6051733e8e9ec4445accb6a7c56c011eecea17e25a
mg_down.rc 0
is_metrics 193fa35c2c4932b21a9a60819f269bfe6757c9b329558f8b1efcb5a94b61f432
is_metrics.rc 0
mg_metrics ffe83b0cd43116c318d5827478e62b641e8701d132f790b6a01581b3ab4c1fa9
mg_metrics.rc 0
mg_traceout ffe83b0cd43116c318d5827478e62b641e8701d132f790b6a01581b3ab4c1fa9
mg_traceout.rc 0
mg_traceout.json 6a1dbd3726a586985e150c668d05e20fbc40621d8c00c674aa6937001c5321c7
mg_traceout_metrics.json 0b2c7e06123a53d280ac789b0f3b4e73e2c14785d8eddb3b13b58e9c1d3760a4
mg_sampled 7ca2a22f15b297fa40ee01ea085bbe1f65858bcdd599bbf53edc1c1742ee3e42
mg_sampled.rc 0
mg_sampled.html 708f7f73079a74fa6038696e6a33c291e0af83d96a9eb351025e7da62008accf
mg_sampled_metrics.json 8104b10eb0ea100201d5164a6fd655983b5ad92417fde2305637ab206c1bc625
mg_trace 87b65b0e3d5cf09e018b9bd95a22acc574d9ffb43d18e091f15de696cf38a724
mg_trace.rc 0
mg_trace.file 757bbf5f01527077fa1798de7f9eec619c3e08c1c1c9085f6bdca63e8669ff24
mg_replay 84bad2ff072551e7b0c39f5fb4faeba07580fb3d8db708a08c310afd47030b74
mg_replay.rc 0
mg_replay_drop 92ab56b782e8323786bd02770a68a09a27b21c157606b3efa0b5509d4bc66b07
mg_replay_drop.rc 0
is_model 031dbd9a2d53725c2444191f399bfd2887fe8f5f5de6955df8b7aed3102de3f3
is_model.rc 0
synth_sinks fea5ece35363bb6a025fbc7e148f5712536bf96edbd56cd3b740dd9ed721cf8e
synth_sinks.rc 0
is_phases_model b212f2d83437c400c5ef1c0ab67ec075d63d4a67995c4b4f6133b12def77fd74
is_phases_model.rc 0
synth_paced b46b8ba10dbcf2dc7c3bc801fea27c2b01228031cc86c6dfb0fb5a9a41bd2427
synth_paced.rc 0
synth_scaled 57f4dca7c6c83758031951fcc3e6b2e2c9adc08b649d23f549d826273237242c
synth_scaled.rc 0
sweep e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
sweep.rc 1
sweep.json 62187086e1dcd6a103a50b9dc22784ecf9fc2f1bb00f9ddfc6a73c7498841eb6
sweep.csv 49d306d67d8028d0f96ffdd6e9d5e4752ba264cc5ecdebc8de03ddc7c28e1fc6
sweep.jsonl 8df66e171194b6971a599d1e5062767694d711f757b4e3d8497bd647979f0eda
resume e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
resume.rc 1
resume.json 62187086e1dcd6a103a50b9dc22784ecf9fc2f1bb00f9ddfc6a73c7498841eb6
resume.csv 49d306d67d8028d0f96ffdd6e9d5e4752ba264cc5ecdebc8de03ddc7c28e1fc6
resume.jsonl 8df66e171194b6971a599d1e5062767694d711f757b4e3d8497bd647979f0eda
EOF

if ! diff expected.txt observed.txt; then
    echo "run_path_golden: outputs differ from the recorded digests" >&2
    exit 1
fi
echo "run_path_golden: $(wc -l < observed.txt) digests match"
