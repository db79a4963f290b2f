#!/bin/sh
# Desynchronization observability (--rank-activity; see DESIGN §6d):
# a router stall launches an idle wave that the report, the metrics
# and the HTML payload all carry; default outputs carry none of it;
# the timeline renders deterministically.
#
# Usage: desync.sh <cchar-binary> <workdir> <case>
#   idle_wave | default_absent | timeline_deterministic
set -eu
B=$1
rm -rf "$2"
mkdir -p "$2"
cd "$2"

STALL="router:5:stall=300@[5ms,15ms]"

case $3 in
idle_wave)
    "$B" characterize mg --rank-activity --fault-plan "$STALL" \
        --metrics-out metrics.json --report-out report.html \
        --json > desync.json
    python3 - <<'EOF'
import json
d = json.load(open('desync.json'))
ra = d['rankActivity']
assert ra['waves'], "no idle wave detected under a router stall"
w = ra['waves'][0]
assert w['extent'] >= 3 and w['speedRanksPerUs'] > 0, w
assert len(ra['ranks']) == 16, len(ra['ranks'])

metrics = json.load(open('metrics.json'))
names = json.dumps(metrics)
for key in ('rank.waves', 'rank.skew_max_us',
            'rank.idle_fraction_max', 'rank.wave_speed_max'):
    assert key in names, f"missing metric {key}"

html = open('report.html').read()
assert 'Rank activity' in html and 'Desynchronization' in html
marker = '<script type="application/json" id="cchar-report-data">'
payload = html.split(marker, 1)[1].split('</script>', 1)[0]
data = json.loads(payload)
assert data['report']['rankActivity']['waves'], "HTML payload lost the waves"
EOF
    ;;
default_absent)
    "$B" characterize mg \
        --metrics-out plain-metrics.json --report-out plain.html \
        --json > plain.json
    python3 - <<'EOF'
import json
assert 'rankActivity' not in json.load(open('plain.json'))
assert 'rank.' not in json.dumps(json.load(open('plain-metrics.json')))
assert 'Desynchronization' not in open('plain.html').read()
EOF
    ;;
timeline_deterministic)
    for f in wave-a.html wave-b.html; do
        "$B" characterize mg --rank-activity --fault-plan "$STALL" \
            --report-out "$f" > /dev/null
    done
    cmp wave-a.html wave-b.html
    ;;
*)
    echo "desync.sh: unknown case '$3'" >&2
    exit 2
    ;;
esac
