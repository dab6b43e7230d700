#!/usr/bin/env bash
# chaos_smoke.sh — 4-rank distributed kill/resume smoke test.
#
# Exercises the full fault-tolerance loop end to end with real processes:
#
#   1. reference: a clean 4-rank tsrun TDSP mesh over loopback TCP, whose
#                 ranks' finalized counts must sum to what a single-process
#                 tsrun reaches on the same dataset, and a single-process
#                 -checkpoint run that must report the plain run's tdsp
#                 line (same reach, same early halt);
#   2. kill:      the same mesh with timestep-boundary checkpointing on,
#                 where rank 2 dies on an injected gofs.load fault (the
#                 timestep-8 pack load) and its fail-fast peers die with it;
#   3. resume:    a fresh mesh resumes from the agreed checkpoint and must
#                 reproduce the reference results exactly.
#
# Environment: SMOKE_DIR (workdir, default mktemp), SMOKE_PORT (base port,
# default 7831; three disjoint port blocks are used so phases never collide
# with lingering TIME_WAIT sockets).
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="${SMOKE_DIR:-$(mktemp -d /tmp/tsgraph-chaos-smoke.XXXXXX)}"
PORT="${SMOKE_PORT:-7831}"
mkdir -p "$WORK"
echo "workdir: $WORK"

go build -o "$WORK/tsrun" ./cmd/tsrun
go run ./cmd/tsgen -out "$WORK/ds" -rows 16 -cols 16 -steps 12 -pack 4 -parts 4 -seed 7 >/dev/null

addrs() {
    echo "127.0.0.1:$1,127.0.0.1:$(($1 + 1)),127.0.0.1:$(($1 + 2)),127.0.0.1:$(($1 + 3))"
}

echo "== phase 1: clean 4-rank reference run"
A=$(addrs "$PORT")
pids=()
for r in 0 1 2 3; do
    "$WORK/tsrun" -in "$WORK/ds" -algo tdsp -cluster-rank "$r" -cluster-addrs "$A" \
        >"$WORK/ref_$r.out" 2>&1 &
    pids+=($!)
done
for p in "${pids[@]}"; do
    wait "$p" || { echo "FAIL: reference rank exited nonzero"; tail -n 5 "$WORK"/ref_*.out; exit 1; }
done
grep -h "tdsp finalized" "$WORK"/ref_*.out | sort >"$WORK/ref.all"
"$WORK/tsrun" -in "$WORK/ds" -algo tdsp >"$WORK/single.out" 2>&1 \
    || { echo "FAIL: single-process run exited nonzero"; tail -n 5 "$WORK/single.out"; exit 1; }
single=$(sed -n 's/^tdsp: reached \([0-9]*\) of.*/\1/p' "$WORK/single.out")
meshed=$(awk '{ n += $5 } END { print n + 0 }' "$WORK/ref.all")
if [ -z "$single" ] || [ "$meshed" != "$single" ]; then
    echo "FAIL: ranks finalized $meshed vertices in all, single-process tsrun reached '${single}'"
    cat "$WORK/ref.all"
    exit 1
fi
echo "   ranks finalized $meshed vertices in all, as the single-process run reached"
"$WORK/tsrun" -in "$WORK/ds" -algo tdsp -checkpoint "$WORK/ck_single" >"$WORK/single_ck.out" 2>&1 \
    || { echo "FAIL: single-process -checkpoint run exited nonzero"; tail -n 5 "$WORK/single_ck.out"; exit 1; }
plain_line=$(grep '^tdsp:' "$WORK/single.out")
ck_line=$(grep '^tdsp:' "$WORK/single_ck.out" || true)
if [ "$ck_line" != "$plain_line" ]; then
    echo "FAIL: -checkpoint run printed '${ck_line}', the plain run '${plain_line}'"
    exit 1
fi
echo "   single-process -checkpoint run matches the plain run: $ck_line"

echo "== phase 2: checkpointed run killed by a chaos gofs.load fault on rank 2"
A=$(addrs $((PORT + 10)))
CK="$WORK/ck"
mkdir -p "$CK"
pids=()
for r in 0 1 2 3; do
    extra=()
    [ "$r" = 2 ] && extra=(-chaos "seed=42,gofs.load=at:2")
    # -bundle-dir: if a rank wedges instead of dying, SIGQUIT captures a
    # diagnostic bundle there; CI uploads $WORK/bundles on failure.
    "$WORK/tsrun" -in "$WORK/ds" -algo tdsp -cluster-rank "$r" -cluster-addrs "$A" \
        -checkpoint "$CK" -bundle-dir "$WORK/bundles" "${extra[@]}" >"$WORK/kill_$r.out" 2>&1 &
    pids+=($!)
done
fails=0
for p in "${pids[@]}"; do
    wait "$p" || fails=$((fails + 1))
done
if [ "$fails" -ne 4 ]; then
    echo "FAIL: want all 4 ranks to die loudly with the injected fault, got $fails nonzero exits"
    tail -n 5 "$WORK"/kill_*.out
    exit 1
fi
for r in 0 1 2 3; do
    ls "$CK"/ckpt_r${r}_* >/dev/null 2>&1 || { echo "FAIL: rank $r left no checkpoint"; ls "$CK"; exit 1; }
done
echo "   all 4 ranks died, every rank checkpointed"

echo "== phase 3: fresh mesh resumes from the agreed checkpoint"
A=$(addrs $((PORT + 20)))
pids=()
for r in 0 1 2 3; do
    "$WORK/tsrun" -in "$WORK/ds" -algo tdsp -cluster-rank "$r" -cluster-addrs "$A" \
        -checkpoint "$CK" -resume -bundle-dir "$WORK/bundles" >"$WORK/res_$r.out" 2>&1 &
    pids+=($!)
done
for p in "${pids[@]}"; do
    wait "$p" || { echo "FAIL: resumed rank exited nonzero"; tail -n 5 "$WORK"/res_*.out; exit 1; }
done
grep -h "tdsp finalized" "$WORK"/res_*.out | sort >"$WORK/res.all"

if ! diff "$WORK/ref.all" "$WORK/res.all"; then
    echo "FAIL: resumed results differ from the clean reference run"
    exit 1
fi
echo "PASS: killed-and-resumed 4-rank run matches the clean run"
