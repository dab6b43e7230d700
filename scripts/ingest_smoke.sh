#!/usr/bin/env bash
# ingest_smoke.sh — end-to-end live-ingestion smoke test.
#
# Boots tsserve -ingest on a delta-encoded dataset and checks the live
# ingestion contract over real HTTP:
#
#   1. streamed mutations answer 200 and the X-Tsserve-Watermark header
#      advances strictly monotonically, while concurrent queries keep
#      getting non-5xx answers;
#   2. the ingest metrics (watermark, append counter) agree with the
#      stream, a query pinned at the boot watermark is byte-identical
#      before and after ingestion (snapshot isolation), and TDSP answers
#      pinned at the final watermark match what offline tsrun computes
#      over the flushed dataset — which must cover the streamed
#      timesteps;
#   3. SIGKILL (no drain, no flush) loses nothing: a restarted tsserve
#      replays the WAL, reports the same watermark, and the pinned
#      answers are unchanged;
#   4. the live-grown dataset holds no part or temp file, and an offline
#      tspart -rewrite of it is cmp-identical, file by file (appends grow
#      packs in place, so a live pack is a byte prefix of an offline one);
#   5. the restarted server still drains cleanly on SIGTERM.
#
# Environment: SMOKE_DIR (workdir, default mktemp).
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

WORK="${SMOKE_DIR:-$(mktemp -d /tmp/tsgraph-ingest-smoke.XXXXXX)}"
STEPS=6 # timesteps streamed over /ingest
mkdir -p "$WORK"
echo "workdir: $WORK"

go build -o "$WORK/tsserve" ./cmd/tsserve
go build -o "$WORK/tsrun" ./cmd/tsrun
go build -o "$WORK/tspart" ./cmd/tspart
go run ./cmd/tsgen -out "$WORK/ds" -rows 16 -cols 16 -steps 6 -data both \
    -pack 4 -snapshot-every 3 -parts 2 -seed 7 >/dev/null

boot() { # boot LOGFILE -> sets SRV; ADDR printed by wait_listen
    "$WORK/tsserve" -in "$WORK/ds" -addr 127.0.0.1:0 -ingest \
        >"$1" 2>&1 &
    SRV=$!
}

# pinned_tdsp ADDR SRC TGT WM — answer body of a TDSP query pinned at
# watermark WM, canonicalized (the per-request query_id dropped) so equal
# answers compare byte-equal.
pinned_tdsp() {
    curl -sf "http://$1/query" \
        -d "{\"kind\":\"tdsp\",\"source\":$2,\"target\":$3,\"watermark\":$4}" \
        | python3 -c 'import json,sys
a = json.load(sys.stdin)
a.pop("query_id", None)
print(json.dumps(a, sort_keys=True))'
}

echo "== boot tsserve -ingest"
boot "$WORK/tsserve.out"
trap 'kill -9 "$SRV" 2>/dev/null || true' EXIT
ADDR="$(wait_listen "$WORK/tsserve.out" "$SRV")"
wait_healthz "$ADDR"
BASE_WM="$(scrape_metric "$ADDR" tsingest_watermark)"
echo "tsserve at $ADDR, watermark $BASE_WM"

# Valid vertex ids for mutations and queries, straight from /stats.
mapfile -t VERTS < <(curl -sf "http://$ADDR/stats" \
    | python3 -c 'import json,sys; [print(v) for v in json.load(sys.stdin)["sample_vertices"][:16]]')
[ "${#VERTS[@]}" -ge 8 ] || { echo "FAIL: /stats offered only ${#VERTS[@]} sample vertices"; exit 1; }
SRC="${VERTS[0]}"

# A pinned answer captured before any ingestion: the same pin must answer
# byte-identically after the head has moved.
PRE_PIN="$(pinned_tdsp "$ADDR" "$SRC" "${VERTS[7]}" "$BASE_WM")"

echo "== stream $STEPS timesteps under concurrent queries"
QLOG="$WORK/queries.codes"
: >"$QLOG"
(
    # Closed-loop background clients: live-head tdsp + meme queries must
    # keep answering (non-5xx) while packs grow under them.
    while :; do
        curl -s -o /dev/null -w '%{http_code}\n' "http://$ADDR/query" \
            -d "{\"kind\":\"tdsp\",\"source\":$SRC,\"target\":${VERTS[3]}}" >>"$QLOG" 2>/dev/null || true
        curl -s -o /dev/null -w '%{http_code}\n' "http://$ADDR/query" \
            -d '{"kind":"meme","tag":"#smoke"}' >>"$QLOG" 2>/dev/null || true
    done
) &
QPID=$!

PREV_WM="$BASE_WM"
for i in $(seq 0 $((STEPS - 1))); do
    BODY="{\"vertices\":[{\"id\":${VERTS[$i]},\"attr\":\"tweets\",\"value\":[\"#smoke\"]}]}"
    HDRS="$WORK/append-$i.hdrs"
    code="$(curl -s -D "$HDRS" -o "$WORK/append-$i.json" -w '%{http_code}' \
        "http://$ADDR/ingest" -d "$BODY")"
    [ "$code" = 200 ] || { echo "FAIL: append $i answered $code"; cat "$WORK/append-$i.json"; exit 1; }
    wm="$(tr -d '\r' <"$HDRS" | sed -n 's/^[Xx]-[Tt]sserve-[Ww]atermark: //p')"
    [ -n "$wm" ] || { echo "FAIL: append $i carried no watermark header"; cat "$HDRS"; exit 1; }
    [ "$wm" -gt "$PREV_WM" ] || { echo "FAIL: watermark not monotonic: $PREV_WM -> $wm"; exit 1; }
    PREV_WM="$wm"
done
kill "$QPID" 2>/dev/null || true
wait "$QPID" 2>/dev/null || true
WANT_WM=$((BASE_WM + STEPS))
[ "$PREV_WM" = "$WANT_WM" ] || { echo "FAIL: final watermark $PREV_WM, want $WANT_WM"; exit 1; }
grep -qE '^5' "$QLOG" && { echo "FAIL: concurrent queries saw 5xx:"; sort "$QLOG" | uniq -c; exit 1; }
echo "   watermark $BASE_WM -> $PREV_WM, $(wc -l <"$QLOG") concurrent queries, no 5xx"

echo "== ingest metrics agree with the stream"
[ "$(scrape_metric "$ADDR" tsingest_watermark)" = "$WANT_WM" ] \
    || { echo "FAIL: tsingest_watermark disagrees"; exit 1; }
[ "$(scrape_metric "$ADDR" tsingest_appends_total)" = "$STEPS" ] \
    || { echo "FAIL: tsingest_appends_total != $STEPS"; exit 1; }
[ "$(scrape_metric "$ADDR" tsingest_append_failures_total)" = 0 ] \
    || { echo "FAIL: tsingest_append_failures_total != 0"; exit 1; }

echo "== a pinned watermark is a stable snapshot"
POST_PIN="$(pinned_tdsp "$ADDR" "$SRC" "${VERTS[7]}" "$BASE_WM")"
[ "$POST_PIN" = "$PRE_PIN" ] || {
    echo "FAIL: answer pinned at watermark $BASE_WM changed after ingestion:"
    echo "  before: $PRE_PIN"
    echo "  after:  $POST_PIN"
    exit 1
}

echo "== pinned-watermark answers match offline tsrun over the flushed dataset"
# Every append is durably published before it is visible, so an offline
# run over the same directory must see the streamed timesteps and compute
# the same arrivals.
TSRUN_OUT="$WORK/tsrun-tdsp.txt"
"$WORK/tsrun" -in "$WORK/ds" -algo tdsp -source "$SRC" -v >"$TSRUN_OUT"
OFF_STEPS="$(sed -n 's/^dataset .*, \([0-9]*\) instances, .*/\1/p' "$TSRUN_OUT")"
[ "$OFF_STEPS" = "$WANT_WM" ] \
    || { echo "FAIL: offline tsrun saw $OFF_STEPS instances, want $WANT_WM"; head -3 "$TSRUN_OUT"; exit 1; }
COMPARED=0
for t in "${VERTS[@]:1:6}"; do
    # tsrun -v prints "tdsp <id> = <arrival>" for every reached vertex.
    off="$(awk -v id="$t" '$1 == "tdsp" && $2 == id { print $4 }' "$TSRUN_OUT")"
    srv="$(pinned_tdsp "$ADDR" "$SRC" "$t" "$WANT_WM" \
        | python3 -c 'import json,sys; a=json.load(sys.stdin)["tdsp"]; print("%.1f" % a["arrival"] if a["reached"] else "unreached")')"
    want="${off:-unreached}"
    [ "$srv" = "$want" ] \
        || { echo "FAIL: target $t: served arrival $srv, offline tsrun $want"; exit 1; }
    [ "$srv" = "unreached" ] || COMPARED=$((COMPARED + 1))
done
[ "$COMPARED" -ge 2 ] || { echo "FAIL: only $COMPARED reached targets compared"; exit 1; }
echo "   $COMPARED arrivals identical served-vs-offline over $OFF_STEPS instances"

echo "== SIGKILL, restart, WAL replay restores the head"
FINAL_PIN="$(pinned_tdsp "$ADDR" "$SRC" "${VERTS[7]}" "$WANT_WM")"
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
boot "$WORK/tsserve2.out"
trap 'kill -9 "$SRV" 2>/dev/null || true' EXIT
ADDR="$(wait_listen "$WORK/tsserve2.out" "$SRV")"
wait_healthz "$ADDR"
grep -q "ingest enabled: watermark $WANT_WM," "$WORK/tsserve2.out" \
    || { echo "FAIL: restart did not recover watermark $WANT_WM"; cat "$WORK/tsserve2.out"; exit 1; }
REPLAY_PIN="$(pinned_tdsp "$ADDR" "$SRC" "${VERTS[7]}" "$WANT_WM")"
[ "$REPLAY_PIN" = "$FINAL_PIN" ] || {
    echo "FAIL: post-crash pinned answer changed:"
    echo "  before: $FINAL_PIN"
    echo "  after:  $REPLAY_PIN"
    exit 1
}
echo "   recovered watermark $WANT_WM, pinned answer unchanged"

echo "== the live dataset is exactly an offline write of the same steps"
STRAY="$(find "$WORK/ds/slices" -name '*.part*' -o -name '.*' -type f)"
[ -z "$STRAY" ] || { echo "FAIL: slices/ holds part or temp files:"; echo "$STRAY"; exit 1; }
rm -rf "$WORK/rewrite"
"$WORK/tspart" -in "$WORK/ds" -rewrite "$WORK/rewrite" -snapshot-every 3 >/dev/null
LIVE_FILES="$(cd "$WORK/ds" && find template.gofs manifest.gofs slices -type f | sort)"
OFF_FILES="$(cd "$WORK/rewrite" && find template.gofs manifest.gofs slices -type f | sort)"
[ "$LIVE_FILES" = "$OFF_FILES" ] || {
    echo "FAIL: live and rewritten datasets hold different files:"
    diff <(echo "$LIVE_FILES") <(echo "$OFF_FILES") || true
    exit 1
}
for f in $LIVE_FILES; do
    cmp -s "$WORK/ds/$f" "$WORK/rewrite/$f" || { echo "FAIL: $f differs from its offline rewrite"; exit 1; }
done
echo "   $(echo "$LIVE_FILES" | wc -l) files cmp-identical to tspart -rewrite"

echo "== restarted server drains cleanly"
kill -TERM "$SRV"
if ! wait "$SRV"; then
    echo "FAIL: tsserve exited nonzero after SIGTERM"
    cat "$WORK/tsserve2.out"
    exit 1
fi
trap - EXIT
grep -q "drained, exiting" "$WORK/tsserve2.out" \
    || { echo "FAIL: drain never logged"; cat "$WORK/tsserve2.out"; exit 1; }

echo "PASS: ingest smoke"
