#!/bin/sh
# Network-weather observability (--link-stats; see DESIGN §6e): a
# router stall raises a ranked congestion hotspot that the report, the
# metrics and the HTML payload all carry; default outputs carry none
# of it; tracking never perturbs the simulated run; the heatmap
# renders deterministically. The stall is unwindowed so it covers the
# (time-compressed) trace replay, which is the network the report
# describes.
#
# Usage: weather.sh <cchar-binary> <workdir> <case>
#   hotspot | default_absent | no_perturb | heatmap_deterministic
set -eu
B=$1
rm -rf "$2"
mkdir -p "$2"
cd "$2"

STALL="router:5:stall=50"

case $3 in
hotspot)
    "$B" characterize mg --link-stats --fault-plan "$STALL" \
        --metrics-out metrics.json --report-out report.html \
        --json > weather.json
    python3 - <<'EOF'
import json
d = json.load(open('weather.json'))
lw = d['linkStats']
assert lw['hotspotCount'] > 0, "no hotspot under a router stall"
assert lw['maxUtilization'] > lw['medianUtilization'], lw
top = lw['links']
assert top[0]['node'] == 5 or top[0].get('toNode') == 5, \
    "stalled router does not own the top-ranked link"
hot = [row for row in top if row['hotspot']]
assert hot and all(h['sustainedFraction'] > 0 for h in hot), hot

metrics = json.load(open('metrics.json'))
names = json.dumps(metrics)
for key in ('link.hotspots', 'link.max_util', 'link.gini',
            'link.hol_stalls'):
    assert key in names, f"missing metric {key}"

html = open('report.html').read()
assert 'Network weather' in html
marker = '<script type="application/json" id="cchar-report-data">'
payload = html.split(marker, 1)[1].split('</script>', 1)[0]
data = json.loads(payload)
assert set(data) == {'report', 'metrics', 'telemetry', 'flows'}, data.keys()
assert data['report']['linkStats']['hotspotCount'] > 0, \
    "HTML payload lost the hotspots"
EOF
    ;;
default_absent)
    "$B" characterize mg \
        --metrics-out plain-metrics.json --report-out plain.html \
        --json > plain.json
    python3 - <<'EOF'
import json
assert 'linkStats' not in json.load(open('plain.json'))
assert 'link.' not in json.dumps(json.load(open('plain-metrics.json')))
assert 'Network weather' not in open('plain.html').read()
EOF
    ;;
no_perturb)
    # The flag-on report minus its linkStats section must equal the
    # flag-off report: the sink observes lane events, it never
    # schedules any.
    "$B" characterize mg --json > off.json
    "$B" characterize mg --link-stats --json > on.json
    python3 - <<'EOF'
import json
off = json.load(open('off.json'))
on = json.load(open('on.json'))
assert 'linkStats' in on
del on['linkStats']
assert on == off, "link-stats tracking changed the run"
EOF
    ;;
heatmap_deterministic)
    for f in weather-a.html weather-b.html; do
        "$B" characterize mg --link-stats --fault-plan "$STALL" \
            --report-out "$f" > /dev/null
    done
    cmp weather-a.html weather-b.html
    ;;
*)
    echo "weather.sh: unknown case '$3'" >&2
    exit 2
    ;;
esac
