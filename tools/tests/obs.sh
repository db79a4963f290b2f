#!/bin/sh
# Observability exports smoke: a characterization writes a parseable
# Chrome trace and metrics document, and its HTML report embeds one
# machine-readable JSON payload with exactly the four documented keys.
# The work directory keeps run.json, metrics.json and report.html for
# inspection.
#
# Usage: obs.sh <cchar-binary> <workdir>
set -eu
B=$1
rm -rf "$2"
mkdir -p "$2"
cd "$2"

"$B" characterize 1d-fft \
    --trace-out run.json --metrics-out metrics.json \
    --report-out report.html
python3 - <<'EOF'
import json
json.load(open('run.json'))
json.load(open('metrics.json'))
html = open('report.html').read()
marker = '<script type="application/json" id="cchar-report-data">'
payload = html.split(marker, 1)[1].split('</script>', 1)[0]
data = json.loads(payload)
assert set(data) == {'report', 'metrics', 'telemetry', 'flows'}, data.keys()
EOF
