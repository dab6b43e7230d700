# lib.sh — shared helpers for the smoke scripts. Source it, don't run it:
#
#   . "$(dirname "$0")/lib.sh"
#
# Every helper is `set -euo pipefail`-clean: no helper pipes curl into
# grep (grep exiting at the first match would EPIPE curl's next write and
# fail the pipeline spuriously), and failures print context to stderr and
# return nonzero instead of exiting the caller's shell directly.

# wait_listen LOG PID [PREFIX]
# Wait (up to 5s) for the daemon whose stdout is teed to LOG to print
# "PREFIX: listening on ADDR"; prints ADDR on stdout. Fails fast if PID
# dies first. PREFIX defaults to tsserve.
wait_listen() {
    local log="$1" pid="$2" prefix="${3:-tsserve}" addr=""
    for _ in $(seq 50); do
        addr="$(sed -n "s/^${prefix}: listening on //p" "$log")"
        if [ -n "$addr" ]; then
            printf '%s\n' "$addr"
            return 0
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: ${prefix} died at boot" >&2
            cat "$log" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "FAIL: ${prefix} never listened" >&2
    cat "$log" >&2
    return 1
}

# wait_healthz ADDR
# Poll GET http://ADDR/healthz (up to 5s) until it answers "ok".
wait_healthz() {
    local addr="$1" out=""
    for _ in $(seq 50); do
        out="$(curl -sf "http://${addr}/healthz" 2>/dev/null || true)"
        case "$out" in ok*) return 0 ;; esac
        sleep 0.1
    done
    echo "FAIL: ${addr}/healthz never answered ok" >&2
    return 1
}

# fetch_metrics ADDR OUT
# GET http://ADDR/metrics into the file OUT (fetch-then-grep pattern).
fetch_metrics() {
    curl -sf "http://$1/metrics" -o "$2" \
        || { echo "FAIL: /metrics fetch from $1 failed" >&2; return 1; }
}

# require_metric FILE NAME
# Assert a fetched metrics file carries a family (^-anchored grep).
require_metric() {
    grep -q "^$2" "$1" \
        || { echo "FAIL: metrics lack $2" >&2; tail -20 "$1" >&2; return 1; }
}

# metric_sum FILE NAME
# Print the sum of a fetched family's samples across its label sets (0
# when the family has no samples).
metric_sum() {
    awk -v name="$2" '$1 == name || index($1, name "{") == 1 { s += $2 } END { printf "%d\n", s }' "$1"
}

# scrape_metric ADDR NAME
# Fetch /metrics and print the value of the first sample named NAME, e.g.
#   wm="$(scrape_metric 127.0.0.1:8090 tsingest_watermark)"
scrape_metric() {
    local tmp val
    tmp="$(mktemp)"
    fetch_metrics "$1" "$tmp" || { rm -f "$tmp"; return 1; }
    val="$(awk -v name="$2" '$1 == name { print $2; exit }' "$tmp")"
    rm -f "$tmp"
    [ -n "$val" ] || { echo "FAIL: metric $2 absent from $1/metrics" >&2; return 1; }
    printf '%s\n' "$val"
}
