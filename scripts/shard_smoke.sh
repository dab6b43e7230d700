#!/usr/bin/env bash
# shard_smoke.sh — sharded-serving smoke test: 3 ranks + router, real
# processes over loopback TCP.
#
# Topology: 3 ranks in 2 replica groups — group 0 = {rank0, rank1}
# (meshed, each owning half the partitions), group 1 = {rank2} (a full
# single-rank copy). The script checks the sharding contract end to end:
#
#   1. pinned TDSP / top-N / meme queries through the router answer
#      byte-identical to a single-process tsserve on the same dataset;
#   2. 200 concurrent mixed queries: only 200/429, every kind succeeds,
#      accepted-query p99 under a bound;
#   3. SIGKILL rank 1 mid-load: the load run still sees only 200/429
#      (zero wrong answers — group 0 dies, sweeps fail over to group 1);
#   4. after the kill, the pinned queries still answer byte-identical,
#      the router's /metrics shows tsshard_failovers_total > 0, and the
#      surviving group-0 rank shows tscluster_retries_total > 0 (the mesh
#      resilience machinery saw the dead peer);
#   5. SIGTERM drains the router and the surviving ranks cleanly.
#
# Environment: SMOKE_DIR (workdir, default mktemp), SMOKE_PORT (base
# port, default 7871), SERVELOAD_P99 (latency bound, default 30s —
# generous because a failover stalls one sweep for the mesh recovery
# window; the real latency expectation is the shard-2x1 workload of
# bench/, 53 ms at the median).
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

WORK="${SMOKE_DIR:-$(mktemp -d /tmp/tsgraph-shard-smoke.XXXXXX)}"
PORT="${SMOKE_PORT:-7871}"
P99="${SERVELOAD_P99:-30s}"
mkdir -p "$WORK"
echo "workdir: $WORK"

go build -o "$WORK/tsserve" ./cmd/tsserve
go build -o "$WORK/serveload" ./scripts/serveload
go run ./cmd/tsgen -out "$WORK/ds" -rows 24 -cols 24 -steps 12 -data both \
    -pack 4 -parts 4 -seed 7 >/dev/null

RANKS="127.0.0.1:$PORT,127.0.0.1:$((PORT + 1)),127.0.0.1:$((PORT + 2))"
MESH="127.0.0.1:$((PORT + 10)),127.0.0.1:$((PORT + 11)),127.0.0.1:$((PORT + 12))"
SHARD=(-ranks "$RANKS" -mesh "$MESH" -replicas 2)

cleanup() {
    kill "${PIDS[@]}" 2>/dev/null || true
}
PIDS=()
trap cleanup EXIT

echo "== boot 3 ranks (group 0 = ranks 0,1 meshed; group 1 = rank 2)"
for r in 0 1 2; do
    "$WORK/tsserve" -in "$WORK/ds" -rank "$r" "${SHARD[@]}" \
        -addr "127.0.0.1:$((PORT + 20 + r))" -instance-cache 2 \
        -mesh-recovery 1s >"$WORK/rank_$r.out" 2>&1 &
    PIDS+=($!)
done
RANK0=${PIDS[0]} RANK1=${PIDS[1]} RANK2=${PIDS[2]}
for r in 0 1 2; do
    wait_listen "$WORK/rank_$r.out" "${PIDS[$r]}" >/dev/null
done

echo "== boot router + single-process oracle"
"$WORK/tsserve" -in "$WORK/ds" -router "${SHARD[@]}" \
    -addr "127.0.0.1:$((PORT + 30))" -result-cache 0 \
    -shard-cooldown 2s >"$WORK/router.out" 2>&1 &
ROUTER=$!
PIDS+=("$ROUTER")
"$WORK/tsserve" -in "$WORK/ds" -addr "127.0.0.1:$((PORT + 31))" \
    -result-cache 0 >"$WORK/oracle.out" 2>&1 &
ORACLE_PID=$!
PIDS+=("$ORACLE_PID")
RADDR="$(wait_listen "$WORK/router.out" "$ROUTER")"
OADDR="$(wait_listen "$WORK/oracle.out" "$ORACLE_PID")"
wait_healthz "$RADDR"
wait_healthz "$OADDR"
echo "router at $RADDR, oracle at $OADDR"

# pinned_queries OUT — write one JSON query per line, built from the
# oracle's /stats sample vertices so the set is dataset-derived.
pinned_queries() {
    curl -sf "http://$OADDR/stats" -o "$WORK/stats.json"
    python3 - "$WORK/stats.json" >"$1" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
vs = st["sample_vertices"]
qs = [
    {"kind": "tdsp", "source": vs[0], "target": vs[-1]},
    {"kind": "tdsp", "source": vs[-1], "target": vs[0], "depart": 3},
    {"kind": "topn", "attr": "load", "n": 5, "from": 0, "count": 4},
    {"kind": "meme", "tag": "#meme"},
    {"kind": "meme", "tag": "#meme", "vertex": vs[1]},
]
for q in qs:
    print(json.dumps(q))
EOF
}

# answers ADDR QUERIES OUT — POST each pinned query, record "body status"
# per line. The query_id is a per-server admission serial, not part of the
# answer, so it is stripped before the byte-level diff.
answers() {
    local addr="$1" queries="$2" out="$3" line
    : >"$out"
    while IFS= read -r line; do
        curl -s -X POST "http://${addr}/query" -d "$line" \
            -w ' status=%{http_code}' \
            | sed -E 's/,?"query_id":"[^"]*"//' >>"$out" || return 1
        printf '\n' >>"$out"
    done <"$queries"
}

echo "== pinned queries: router answers byte-identical to the oracle"
pinned_queries "$WORK/queries.jsonl"
answers "$OADDR" "$WORK/queries.jsonl" "$WORK/oracle.ans"
answers "$RADDR" "$WORK/queries.jsonl" "$WORK/router.ans"
if ! diff "$WORK/oracle.ans" "$WORK/router.ans"; then
    echo "FAIL: routed answers differ from the single-process oracle"
    exit 1
fi
grep -q 'status=200' "$WORK/oracle.ans" \
    || { echo "FAIL: pinned queries never answered 200"; cat "$WORK/oracle.ans"; exit 1; }

echo "== 200 concurrent mixed queries through the router (only 200/429, p99 <= $P99)"
"$WORK/serveload" -addr "http://$RADDR" -n 200 -c 200 -p99 "$P99"

echo "== SIGKILL rank 1 under load (group 0 dies; zero wrong answers allowed)"
"$WORK/serveload" -addr "http://$RADDR" -n 1000 -c 200 -p99 "$P99" \
    >"$WORK/load_kill.out" 2>&1 &
LOAD=$!
sleep 0.3
kill -9 "$RANK1"
if ! wait "$LOAD"; then
    echo "FAIL: load run with a killed replica saw a wrong answer or bad status"
    cat "$WORK/load_kill.out"
    exit 1
fi
cat "$WORK/load_kill.out"

echo "== post-kill: failover to group 1 keeps answers byte-identical"
answers "$RADDR" "$WORK/queries.jsonl" "$WORK/router_postkill.ans"
if ! diff "$WORK/oracle.ans" "$WORK/router_postkill.ans"; then
    echo "FAIL: post-failover answers differ from the oracle"
    exit 1
fi

echo "== recovery is visible: router failovers and surviving-rank retries"
# scrape_sum ADDR NAME — sum a counter family across its label sets,
# polling (up to 10s) until the sum goes positive; prints the final sum.
# The poll matters: the surviving rank's mesh retries finish a moment
# after the router has already failed the sweep over to group 1.
scrape_sum() {
    local addr="$1" name="$2" tmp sum=0
    tmp="$(mktemp)"
    for _ in $(seq 20); do
        fetch_metrics "$addr" "$tmp" || { rm -f "$tmp"; return 1; }
        sum="$(awk -v name="$name" 'index($1, name) == 1 { s += $2 } END { printf "%d", s }' "$tmp")"
        if [ "$sum" -gt 0 ]; then break; fi
        sleep 0.5
    done
    rm -f "$tmp"
    printf '%s\n' "$sum"
}
FAILOVERS="$(scrape_sum "$RADDR" tsshard_failovers_total)"
[ "$FAILOVERS" -gt 0 ] \
    || { echo "FAIL: router recorded no failovers after the kill"; exit 1; }
RETRIES="$(scrape_sum "127.0.0.1:$((PORT + 20))" tscluster_retries_total)"
[ "$RETRIES" -gt 0 ] \
    || { echo "FAIL: surviving group-0 rank recorded no mesh retries"; exit 1; }
echo "   tsshard_failovers_total=$FAILOVERS tscluster_retries_total=$RETRIES"

echo "== SIGTERM drains the router and surviving ranks cleanly"
for victim in "$ROUTER" "$RANK0" "$RANK2" "$ORACLE_PID"; do
    kill -TERM "$victim"
done
wait "$ROUTER" || { echo "FAIL: router exited nonzero"; cat "$WORK/router.out"; exit 1; }
wait "$RANK0" || { echo "FAIL: rank 0 exited nonzero"; cat "$WORK/rank_0.out"; exit 1; }
wait "$RANK2" || { echo "FAIL: rank 2 exited nonzero"; cat "$WORK/rank_2.out"; exit 1; }
trap - EXIT
grep -q "drained, exiting" "$WORK/router.out" \
    || { echo "FAIL: router drain never logged"; cat "$WORK/router.out"; exit 1; }
grep -q "drained, exiting" "$WORK/rank_2.out" \
    || { echo "FAIL: rank 2 drain never logged"; cat "$WORK/rank_2.out"; exit 1; }

echo "PASS: shard smoke"
