#!/usr/bin/env bash
# Parent-vs-change comparison of one benchmark workload.
#
#   scripts/ab.sh PARENT_REV WORKLOAD [PAIRS=10] [SECONDS=20]
#
# Builds benchmark/ at PARENT_REV, in a temporary git worktree under
# ${TMPDIR:-/tmp} that is removed on exit, and in the working tree. Then
# runs PAIRS pairs of
#
#   bash benchmark/run.sh --workload WORKLOAD --seed N --seconds SECONDS --trace 0
#
# one per side, seeds 1..PAIRS. Odd pairs run the parent first, even pairs
# the change. Every run's result line is printed as it arrives. At the end,
# for each end-to-end metric in BENCHMARK.json, the script prints both
# sides' median and quartiles, the ratio of the medians (change / parent)
# and how many pairs the change won, by the metric's own direction.
#
# Exits 1 if any run reports `"correct": false`, `failed` > 0 or no result
# line (its standard error is printed); 2 on a usage or build error.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh PARENT_REV WORKLOAD [PAIRS=10] [SECONDS=20]" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 4 ] || usage
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-20}
[[ $pairs =~ ^[1-9][0-9]*$ && $seconds =~ ^[1-9][0-9]*$ ]] || usage

root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
    { echo "ab.sh: unknown revision $rev" >&2; exit 2; }
tmp=$(mktemp -d "${TMPDIR:-/tmp}/avgi-ab.XXXXXX")
parent=$tmp/parent
cleanup() {
    git -C "$root" worktree remove --force "$parent" 2>/dev/null || true
    git -C "$root" worktree prune 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$parent" "$rev"

# Each side builds into its own tree's benchmark/target.
unset CARGO_TARGET_DIR
for side in "$parent" "$root"; do
    echo "building benchmark/ in $side" >&2
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml" ||
        exit 2
done

# run SIDE_NAME SIDE_DIR PAIR: one measured run; appends its result line.
bad=0
run() {
    local name=$1 dir=$2 pair=$3 line
    local err=$tmp/$name-$pair.err
    line=$(bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$pair" \
        --seconds "$seconds" --trace 0 2>"$err" | tail -n 1) || true
    echo "pair $pair $name: $line"
    if ! grep -q '"correct": *true' <<<"$line" || ! grep -q '"failed": *0[,}]' <<<"$line"; then
        echo "ab.sh: pair $pair $name did not pass; its stderr ends:" >&2
        tail -n 20 "$err" >&2
        bad=1
    fi
    echo "$pair $line" >>"$tmp/$name.runs"
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent" "$pair"
        run change "$root" "$pair"
    else
        run change "$root" "$pair"
        run parent "$parent" "$pair"
    fi
done

# "name better" for each end-to-end metric of the manifest.
metrics=$(awk '/"end_to_end"/ { on = 1; next } on && /\]/ { exit }
    on { match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH)
         match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH)
         gsub(/.*: *"|"/, "", n); gsub(/.*: *"|"/, "", b); print n, b }' \
    "$root/BENCHMARK.json")

echo
echo "$workload: $pairs pairs of $seconds s against $rev (median [q1, q3])"
printf '%-24s %-38s %-38s %8s %6s\n' metric parent change ratio won
while read -r metric better; do
    awk -v m="$metric" -v better="$better" '
        function value(line,   s) {
            if (!match(line, "\"" m "\": *\\{\"value\": *[-+0-9.eE]+")) return ""
            s = substr(line, RSTART, RLENGTH); sub(/.*: */, "", s); return s + 0
        }
        function quantile(v, n, p,   h, i) {
            h = (n - 1) * p; i = int(h)
            return i + 1 < n ? v[i] + (h - i) * (v[i + 1] - v[i]) : v[i]
        }
        function summary(v, n,   i, j, t, s) {
            for (i = 0; i < n; i++) s[i] = v[i]
            for (i = 1; i < n; i++)
                for (j = i; j > 0 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
            med = quantile(s, n, 0.5)
            return sprintf("%.6g [%.6g, %.6g]", med, quantile(s, n, 0.25), quantile(s, n, 0.75))
        }
        FNR == 1 { side++ }
        { x = value($0); if (x == "") next
          if (side == 1) { p[$1] = x; pv[np++] = x } else { c[$1] = x; cv[nc++] = x } }
        END {
            if (np == 0 || nc == 0) { printf "%-26s %s\n", m, "(not reported)"; exit }
            for (k in p) if (k in c) {
                both++
                won += better == "higher" ? c[k] > p[k] : c[k] < p[k]
            }
            ps = summary(pv, np); pm = med
            cs = summary(cv, nc); cm = med
            printf "%-24s %-38s %-38s %8s %6s\n", m, ps, cs,
                pm == 0 ? "-" : sprintf("x%.3f", cm / pm), won "/" both
        }' "$tmp/parent.runs" "$tmp/change.runs"
done <<<"$metrics"

exit "$bad"
