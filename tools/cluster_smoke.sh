#!/usr/bin/env bash
# Multi-process cluster smoke: route a fig13-style request stream
# through gopim_router with 3 spawned gopim_serve shards, SIGKILL one
# shard mid-stream (chaos), and byte-diff the responses against a
# single-process gopim_serve run of the same stream. Asserts:
#
#   - the cluster output is bit-identical to the single process
#     (stable envelope; placement + restart replay preserve caching),
#   - at least one shard restart actually happened (from the
#     {"type":"stats"} trailer, NOT stderr — inform() is suppressed
#     at the default log level),
#   - the router metrics export (METRICS_router.json) carries the
#     restart/reissue counters,
#   - a framed client of `gopim_router --tcp` gets every answer,
#     byte-identical to the single process, before it half-closes,
#   - the router removed its /tmp/gopim_router.* port-file directory.
#
# Usage: tools/cluster_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build=${1:-build}
serve=$build/tools/gopim_serve
router=$build/tools/gopim_router
for bin in "$serve" "$router"; do
    [ -x "$bin" ] || { echo "missing $bin (build first)" >&2; exit 1; }
done

work=$(mktemp -d "${TMPDIR:-/tmp}/gopim_cluster_smoke.XXXXXX")
router_pid=
trap '[ -z "$router_pid" ] || kill "$router_pid" 2>/dev/null; rm -rf "$work"' EXIT

# A fig13-style grid (datasets x systems x seeds x micro-batches),
# repeated so the stream exceeds 1000 requests and re-hits the LRU
# caches, plus four invalid lines per repetition (an unknown dataset,
# unparseable JSON, an unknown field, and an epochs count whose
# micro-batch total wraps 32 bits) to pin the shared line decoder's
# error bytes.
requests=$work/requests.jsonl
: > "$requests"
for rep in $(seq 1 28); do
    for dataset in ddi Cora; do
        for system in GoPIM Serial ReGraphX; do
            for seed in 1 2 3; do
                for mb in 32 64; do
                    printf '{"id":"%s-%s-%s-s%s-b%s","dataset":"%s","system":"%s","baseline":"Serial","seed":%s,"micro_batch":%s}\n' \
                        "$rep" "$dataset" "$system" "$seed" "$mb" \
                        "$dataset" "$system" "$seed" "$mb" \
                        >> "$requests"
                done
            done
        done
    done
    {
        printf '{"dataset":"no-such-dataset","id":"bad-%s"}\n' "$rep"
        printf '{"id":"json-%s","dataset":\n' "$rep"
        printf '{"id":"field-%s","datset":"ddi"}\n' "$rep"
        printf '{"id":"wrap-%s","dataset":"ddi","epochs":64103990}\n' "$rep"
    } >> "$requests"
done
lines=$(wc -l < "$requests")
[ "$lines" -ge 1000 ] || { echo "stream too short: $lines" >&2; exit 1; }
echo "request stream: $lines lines"

echo "single-process golden (gopim_serve --envelope=stable) ..."
"$serve" --envelope=stable --jobs=4 \
    < "$requests" > "$work/golden.jsonl"

port_dirs() { find /tmp -maxdepth 1 -name 'gopim_router.*' | wc -l; }
dirs_before=$(port_dirs)
echo "3-shard cluster with one chaos kill mid-stream ..."
"$router" --workers=3 --worker-cmd="$serve --jobs=2" \
    --chaos-kill-every=400 --chaos-kill-count=1 --chaos-seed=7 \
    --stats --metrics-out=METRICS_router.json \
    < "$requests" > "$work/cluster_raw.jsonl"

stats=$(tail -n 1 "$work/cluster_raw.jsonl")
case $stats in
    *'"type":"stats"'*) ;;
    *) echo "missing stats trailer: $stats" >&2; exit 1 ;;
esac
head -n -1 "$work/cluster_raw.jsonl" > "$work/cluster.jsonl"

diff "$work/golden.jsonl" "$work/cluster.jsonl" \
    || { echo "cluster output differs from single process" >&2; exit 1; }
echo "BYTE-IDENTICAL: $lines responses match the single process"

kills=$(printf '%s' "$stats" | sed -n 's/.*"chaos_kills":\([0-9]*\).*/\1/p')
restarts=$(printf '%s' "$stats" \
    | sed -n 's/.*"restarts":\([0-9]*\),"reissued".*/\1/p')
[ "${kills:-0}" -eq 1 ] \
    || { echo "expected 1 chaos kill, stats: $stats" >&2; exit 1; }
[ "${restarts:-0}" -ge 1 ] \
    || { echo "no shard restart recorded, stats: $stats" >&2; exit 1; }
echo "chaos: $kills kill(s), $restarts restart(s): $stats"

grep -q '"schema": "gopim.metrics.v1"' METRICS_router.json
grep -q 'cluster.restart.count' METRICS_router.json
grep -q 'cluster.request.count' METRICS_router.json
echo "METRICS_router.json carries the cluster counters"

echo "framed client over gopim_router --tcp, reading before half-close ..."
"$router" --workers=3 --worker-cmd="$serve --jobs=2" --tcp=0 \
    --port-file="$work/router.port" &
router_pid=$!
for _ in $(seq 1 500); do [ -s "$work/router.port" ] && break; sleep 0.02; done
# Frames are a 4-byte little-endian length, then the line. A router
# that answers only once the next frame or EOF arrives times this out.
timeout 120 python3 - "$(cat "$work/router.port")" "$requests" \
    > "$work/framed.jsonl" <<'PY'
import socket, struct, sys, threading
lines = open(sys.argv[2], "rb").read().split(b"\n")[:-1]
sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
answers = sock.makefile("rb")
def send(frame):
    sock.sendall(struct.pack("<I", len(frame)) + frame)
def recv():
    (size,) = struct.unpack("<I", answers.read(4))  # fails at EOF
    return answers.read(size)
send(b'{"proto":"gopim.cluster.v1","role":"client","envelope":"stable"}')
if b'"type":"hello"' not in recv():
    sys.exit("router refused the hello")
sender = threading.Thread(target=lambda: [send(line) for line in lines])
sender.start()
for _ in lines:
    sys.stdout.buffer.write(recv() + b"\n")
sender.join()
sock.shutdown(socket.SHUT_WR)
if answers.read(1):
    sys.exit("an answer to nothing after the last request")
PY
kill -TERM "$router_pid"
wait "$router_pid"
router_pid=
diff "$work/golden.jsonl" "$work/framed.jsonl" \
    || { echo "framed router output differs from single process" >&2; exit 1; }
echo "BYTE-IDENTICAL: $lines framed responses, all before half-close"
[ "$(port_dirs)" -le "$dirs_before" ] \
    || { echo "gopim_router left its port-file directory" >&2; exit 1; }
echo "cluster smoke OK"
