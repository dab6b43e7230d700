#!/usr/bin/env bash
# serve_smoke.sh — end-to-end tsserve smoke test.
#
# Boots the serving daemon on a generated dataset, fires 200 concurrent
# mixed queries (TDSP / top-N / meme) at it, and checks the serving
# contract end to end:
#
#   1. every response is 200 or 429, and every 429 carries Retry-After;
#   2. each query kind succeeds at least once and accepted-query p99 stays
#      under a bound;
#   3. an invalid query and a malformed body each answer 400 and count in
#      tsserve_queries_bad_total,
#      the load step left tsserve_queries_failed_total at 0, /metrics
#      exposes the serving counters, latency histograms, runtime telemetry,
#      and build info, and /debug/flight answers with recorder counters;
#   4. POST /debug/bundle captures a diagnostic bundle, the bundle is
#      listed and downloaded over HTTP, and tsdiag triages it offline;
#   5. SIGTERM drains cleanly: the process logs the drain and exits 0.
#
# Environment: SMOKE_DIR (workdir, default mktemp), SERVELOAD_P99 (latency
# bound, default 10s — generous because CI machines are noisy; the real
# latency expectation is the serve-uncached workload of bench/, 2.2 ms at
# the median).
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

WORK="${SMOKE_DIR:-$(mktemp -d /tmp/tsgraph-serve-smoke.XXXXXX)}"
P99="${SERVELOAD_P99:-10s}"
mkdir -p "$WORK"
echo "workdir: $WORK"

go build -o "$WORK/tsserve" ./cmd/tsserve
go build -o "$WORK/tsdiag" ./cmd/tsdiag
go build -o "$WORK/serveload" ./scripts/serveload
go run ./cmd/tsgen -out "$WORK/ds" -rows 24 -cols 24 -steps 12 -data both \
    -pack 4 -parts 4 -seed 7 >/dev/null

echo "== boot tsserve"
"$WORK/tsserve" -in "$WORK/ds" -addr 127.0.0.1:0 -v \
    -bundle-dir "$WORK/bundles" >"$WORK/tsserve.out" 2>&1 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT

ADDR="$(wait_listen "$WORK/tsserve.out" "$SRV")"
wait_healthz "$ADDR"
echo "tsserve at $ADDR"

echo "== 200 concurrent mixed queries (only 200/429 allowed, p99 <= $P99)"
"$WORK/serveload" -addr "http://$ADDR" -n 200 -c 200 -p99 "$P99"

echo "== an invalid query and a malformed body answer 400"
CODE="$(curl -s -o "$WORK/bad.json" -w '%{http_code}' "http://$ADDR/query" -d '{"kind":"bogus"}')"
[ "$CODE" = 400 ] || { echo "FAIL: invalid query answered $CODE, want 400"; cat "$WORK/bad.json"; exit 1; }
CODE="$(curl -s -o "$WORK/malformed.json" -w '%{http_code}' "http://$ADDR/query" -d '{"kind":')"
[ "$CODE" = 400 ] || { echo "FAIL: malformed body answered $CODE, want 400"; cat "$WORK/malformed.json"; exit 1; }

echo "== /metrics carries the serving counters"
METRICS="$WORK/metrics.txt"
fetch_metrics "$ADDR" "$METRICS"
[ "$(metric_sum "$METRICS" tsserve_queries_bad_total)" -ge 2 ] \
    || { echo "FAIL: tsserve_queries_bad_total did not count the invalid query and the malformed body"; exit 1; }
[ "$(metric_sum "$METRICS" tsserve_queries_failed_total)" = 0 ] \
    || { echo "FAIL: tsserve_queries_failed_total is not 0 after the load step"; grep tsserve_queries_failed_total "$METRICS"; exit 1; }
require_metric "$METRICS" tsserve_queries_answered_total
require_metric "$METRICS" tsserve_latency_seconds_bucket
require_metric "$METRICS" tsgraph_build_info

echo "== /debug/flight answers with recorder counters"
FLIGHT="$WORK/flight.json"
curl -sf "http://$ADDR/debug/flight" -o "$FLIGHT" \
    || { echo "FAIL: /debug/flight fetch failed (curl exit $?)"; exit 1; }
grep -q '"queries_total"' "$FLIGHT" \
    || { echo "FAIL: /debug/flight lacks queries_total"; cat "$FLIGHT"; exit 1; }

echo "== runtime telemetry is on the scrape"
require_metric "$METRICS" tsgraph_go_goroutines
require_metric "$METRICS" tsgraph_go_gc_pause_seconds_bucket
require_metric "$METRICS" tsgofs_bytes_read_total

echo "== POST /debug/bundle captures, lists, downloads, and triages"
CAPTURE="$WORK/capture.json"
curl -sf -X POST "http://$ADDR/debug/bundle" -o "$CAPTURE" \
    || { echo "FAIL: bundle capture failed (curl exit $?)"; cat "$CAPTURE" 2>/dev/null; exit 1; }
BUNDLE_NAME="$(python3 -c 'import json,os,sys; print(os.path.basename(json.load(open(sys.argv[1]))["bundle"]))' "$CAPTURE")"
[ -n "$BUNDLE_NAME" ] || { echo "FAIL: capture response named no bundle"; cat "$CAPTURE"; exit 1; }
curl -sf "http://$ADDR/debug/bundle" -o "$WORK/bundle-list.json" \
    || { echo "FAIL: bundle list fetch failed"; exit 1; }
python3 -c 'import json,sys; bs=json.load(open(sys.argv[1]))["bundles"]; assert len(bs)==1, bs' "$WORK/bundle-list.json" \
    || { echo "FAIL: bundle list does not show the capture"; cat "$WORK/bundle-list.json"; exit 1; }
curl -sf "http://$ADDR/debug/bundle?name=$BUNDLE_NAME" -o "$WORK/$BUNDLE_NAME" \
    || { echo "FAIL: bundle download failed"; exit 1; }
TRIAGE="$WORK/triage.txt"
"$WORK/tsdiag" "$WORK/$BUNDLE_NAME" >"$TRIAGE" \
    || { echo "FAIL: tsdiag could not triage the bundle"; cat "$TRIAGE"; exit 1; }
grep -q 'trigger: manual' "$TRIAGE" \
    || { echo "FAIL: triage lacks the manual trigger"; cat "$TRIAGE"; exit 1; }
grep -q 'tsserve' "$TRIAGE" \
    || { echo "FAIL: triage lacks the capturing tool"; cat "$TRIAGE"; exit 1; }
echo "   triaged $BUNDLE_NAME"

echo "== SIGTERM drains cleanly"
kill -TERM "$SRV"
if ! wait "$SRV"; then
    echo "FAIL: tsserve exited nonzero after SIGTERM"
    cat "$WORK/tsserve.out"
    exit 1
fi
trap - EXIT
grep -q "drained, exiting" "$WORK/tsserve.out" \
    || { echo "FAIL: drain never logged"; cat "$WORK/tsserve.out"; exit 1; }

echo "PASS: serve smoke"
