#!/bin/sh
# Golden digests of every application's synthetic model replay: for
# each app, `characterize <app> --phases --json` writes the model and
# `synth <model> --use-phases --json` replays it with phase-scaled
# gaps. The SHA-256 of each synth stdout and its exit code are pinned,
# so a change to the model loader, the model assembly or the generator
# that moves any app's replay shows up here. The eight apps cover eight
# inter-arrival families and one to five detected phases.
#
# Usage: synth_models_golden.sh <cchar-binary> <workdir>
set -eu

B=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
D=$2
rm -rf "$D"
mkdir -p "$D"
cd "$D"

: > observed.txt

for app in 1d-fft is cholesky maxflow nbody sor 3d-fft mg; do
    "$B" characterize "$app" --phases --json > "$app.model.json" \
        2> "$app.model.stderr"
    rc=0
    "$B" synth "$app.model.json" --use-phases --json > "$app.stdout" \
        2> "$app.stderr" || rc=$?
    echo "$app $(sha256sum < "$app.stdout" | cut -d' ' -f1)" >> observed.txt
    echo "$app.rc $rc" >> observed.txt
done

cat > expected.txt <<'EOF'
1d-fft e5dcb2ed3ec6b86232e80d0ccdf4d3c6aed10f3736830e5140cf2adb09b7551b
1d-fft.rc 0
is 12507ac63ac52469170e66e8def8bdfdbf3ddb901cc5a3a7ffa7a483c4f922cb
is.rc 0
cholesky ca52f51e08dc733ca34519aab171d762239ad330d09f6df17ee11151dfd0c1ca
cholesky.rc 0
maxflow a9bbaaedcd8d89b29f453d0595ec134b27c45f89e1c0406c45cd1ecc5135a327
maxflow.rc 0
nbody 7ef91c189f0297590c9da29b04205b4c1fc3b2f396a7b8d0c4cd54dd900d5ffd
nbody.rc 0
sor 99d205ae4d5a09cf279b28e5605396f2bf6b0c4792eddf68d85d0c43aacb60ca
sor.rc 0
3d-fft ca9f203fab5397f7bc11bcafedb793776adc5fa4c73e061eeee987dbccfa2df0
3d-fft.rc 0
mg 3a9986aee96a7f648eb1f5c48c59be31d3bf2f84cb9422551297567b69fc6a34
mg.rc 0
EOF

if ! diff expected.txt observed.txt; then
    echo "synth_models_golden: outputs differ from the recorded digests;" \
        "observed listing:" >&2
    cat observed.txt >&2
    exit 1
fi
echo "synth_models_golden: $(wc -l < observed.txt) digests match"
