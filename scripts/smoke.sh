#!/usr/bin/env bash
# Smoke test: boot a real mvpearsd (bootstrapping a quick-scale model),
# probe the public and admin listeners, run one traced detection, and
# assert the observability surface is live — /healthz, /metrics,
# /debug/pprof/, the traced request's five pipeline stages in its
# access-log line, and the three mvpears_detect_stage_seconds stages.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=${ADDR:-127.0.0.1:18080}
ADMIN_ADDR=${ADMIN_ADDR:-127.0.0.1:18081}
WORKDIR=$(mktemp -d)
ALL_PIDS=""
cleanup() {
    for pid in $ALL_PIDS; do kill "$pid" 2>/dev/null || true; done
    for pid in $ALL_PIDS; do wait "$pid" 2>/dev/null || true; done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== build =="
go build -o "$WORKDIR/mvpears" ./cmd/mvpears
go build -o "$WORKDIR/mvpearsd" ./cmd/mvpearsd

echo "== negative boot =="
# A flag combination that cannot work fails before the model is opened or
# trained: non-zero exit well inside the 2 s budget, no artifact written.
set +e
timeout 2 "$WORKDIR/mvpearsd" -model "$WORKDIR/none.gob" -bootstrap \
    -peers 127.0.0.1:1 >"$WORKDIR/negboot.log" 2>&1
RC=$?
set -e
if [ "$RC" -eq 0 ] || [ "$RC" -eq 124 ]; then
    echo "FAIL: misconfigured boot exited $RC (want a prompt non-zero exit)"; cat "$WORKDIR/negboot.log"; exit 1
fi
[ ! -e "$WORKDIR/none.gob" ] || { echo "FAIL: misconfigured boot wrote none.gob"; exit 1; }
grep -q -- '-peers requires -cluster-addr' "$WORKDIR/negboot.log" \
    || { echo "FAIL: boot error does not name -peers"; cat "$WORKDIR/negboot.log"; exit 1; }
# A removed flag is an unknown flag, not a silently ignored one.
set +e
timeout 2 "$WORKDIR/mvpearsd" -model "$WORKDIR/none.gob" -hedge-after 5ms >"$WORKDIR/negflag.log" 2>&1
RC=$?
set -e
if [ "$RC" -eq 0 ] || [ "$RC" -eq 124 ]; then
    echo "FAIL: boot with -hedge-after exited $RC (want a prompt non-zero exit)"; cat "$WORKDIR/negflag.log"; exit 1
fi
grep -q -- 'not defined: -hedge-after' "$WORKDIR/negflag.log" \
    || { echo "FAIL: boot error does not name -hedge-after"; cat "$WORKDIR/negflag.log"; exit 1; }
# -bootstrap fills only a missing artifact: one that exists but does not
# load fails the boot promptly and is left byte-identical.
printf 'not a model artifact\n' >"$WORKDIR/bad.gob"
cp "$WORKDIR/bad.gob" "$WORKDIR/bad.gob.orig"
set +e
timeout 2 "$WORKDIR/mvpearsd" -model "$WORKDIR/bad.gob" -bootstrap >"$WORKDIR/badboot.log" 2>&1
RC=$?
set -e
if [ "$RC" -eq 0 ] || [ "$RC" -eq 124 ]; then
    echo "FAIL: boot on an unreadable artifact exited $RC (want a prompt non-zero exit)"; cat "$WORKDIR/badboot.log"; exit 1
fi
cmp "$WORKDIR/bad.gob" "$WORKDIR/bad.gob.orig" || { echo "FAIL: -bootstrap rewrote an unreadable artifact"; exit 1; }

echo "== fixture =="
"$WORKDIR/mvpears" synth -text "open the front door" -out "$WORKDIR/clip.wav" -seed 7

echo "== boot =="
"$WORKDIR/mvpearsd" -model "$WORKDIR/model.gob" -bootstrap \
    -addr "$ADDR" -admin-addr "$ADMIN_ADDR" \
    -audit "$WORKDIR/audit.jsonl" >"$WORKDIR/daemon.log" 2>&1 &
DAEMON_PID=$!
ALL_PIDS="$DAEMON_PID"

for i in $(seq 1 100); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "daemon died during boot:"; cat "$WORKDIR/daemon.log"; exit 1
    fi
    sleep 0.5
done
curl -fsS "http://$ADDR/healthz" >/dev/null || { echo "daemon never became healthy"; cat "$WORKDIR/daemon.log"; exit 1; }

fail() { echo "FAIL: $1"; cat "$WORKDIR"/*.log 2>/dev/null; exit 1; }

echo "== admin listener =="
curl -fsS "http://$ADMIN_ADDR/healthz" >/dev/null || fail "admin /healthz"
curl -fsS "http://$ADMIN_ADDR/debug/pprof/" >/dev/null || fail "admin /debug/pprof/"
curl -fsS "http://$ADMIN_ADDR/infoz" | grep -q '"model_fingerprint"' || fail "admin /infoz missing model fingerprint"

echo "== traced detection =="
VERDICT=$(curl -fsS -X POST --data-binary @"$WORKDIR/clip.wav" \
    -H 'Content-Type: audio/wav' -H 'X-Request-ID: smoke-1' \
    -D "$WORKDIR/headers.txt" \
    "http://$ADDR/v1/detect?explain=1")
echo "$VERDICT" | grep -q '"verdict"' || fail "no verdict in response: $VERDICT"
echo "$VERDICT" | grep -q '"explanation"' || fail "no explanation in ?explain=1 response: $VERDICT"
grep -qi '^x-request-id: smoke-1' "$WORKDIR/headers.txt" || fail "X-Request-ID not echoed"

echo "== streaming session =="
# A chunked, unbuffered upload through the live-audio endpoint: the
# NDJSON response must carry at least one provisional window verdict
# before the final whole-clip verdict.
STREAM=$(curl -fsS --no-buffer -X POST \
    -H 'Content-Type: audio/wav' -H 'Transfer-Encoding: chunked' \
    --data-binary @"$WORKDIR/clip.wav" \
    "http://$ADDR/v1/detect/stream")
echo "$STREAM" | grep -q '"event":"window"' || fail "stream produced no provisional window event: $STREAM"
echo "$STREAM" | grep -q '"event":"final"' || fail "stream produced no final event: $STREAM"
echo "$STREAM" | grep -q '"detection"' || fail "final stream event carries no detection: $STREAM"

echo "== stage timings =="
LOGLINE=$(grep '"request_id":"smoke-1"' "$WORKDIR/daemon.log") || fail "no access-log line for smoke-1"
for stage in decode transcribe phonetic similarity classify; do
    echo "$LOGLINE" | grep -q "\"${stage}_ms\":" || fail "smoke-1 access-log line missing stage \"$stage\": $LOGLINE"
done
METRICS=$(curl -fsS "http://$ADMIN_ADDR/metrics")
for stage in recognition similarity classify; do
    echo "$METRICS" | grep -q "mvpears_detect_stage_seconds_count{stage=\"$stage\"}" \
        || fail "metrics missing detect stage \"$stage\""
done
echo "$METRICS" | grep -q 'mvpears_stream_sessions_total 1' || fail "metrics missing streaming session count"
echo "$METRICS" | grep -q 'mvpears_stream_windows_total' || fail "metrics missing streaming window counts"

echo "== cluster: boot 3 replicas =="
# Three replicas share the already-bootstrapped model artifact (same
# fingerprint) and a full peer mesh over the cluster protocol.
PUB_A=127.0.0.1:18084; PUB_B=127.0.0.1:18085; PUB_C=127.0.0.1:18086
ADM_C=127.0.0.1:18087
CL_A=127.0.0.1:19190;  CL_B=127.0.0.1:19191;  CL_C=127.0.0.1:19192

start_replica() { # name pub-addr cluster-addr peers extra-args...
    local name=$1 pub=$2 cl=$3 prs=$4; shift 4
    "$WORKDIR/mvpearsd" -model "$WORKDIR/model.gob" -addr "$pub" \
        -cluster-addr "$cl" -peers "$prs" "$@" \
        >"$WORKDIR/$name.log" 2>&1 &
    ALL_PIDS="$ALL_PIDS $!"
}
start_replica replicaA "$PUB_A" "$CL_A" "$CL_B,$CL_C"
# B logs every request as a slow line, with full span detail.
start_replica replicaB "$PUB_B" "$CL_B" "$CL_A,$CL_C" -slow 1ns
start_replica replicaC "$PUB_C" "$CL_C" "$CL_A,$CL_B" -admin-addr "$ADM_C"

for pub in "$PUB_A" "$PUB_B" "$PUB_C"; do
    for i in $(seq 1 100); do
        if curl -fsS "http://$pub/healthz" >/dev/null 2>&1; then break; fi
        sleep 0.2
    done
    curl -fsS "http://$pub/healthz" >/dev/null || {
        echo "replica on $pub never became healthy"
        cat "$WORKDIR"/replica?.log; exit 1
    }
done

echo "== cluster: remote verdict-cache hit =="
# Detect on A, repeat on B: when the key's owner is A or C, B's answer
# is a remote hit off the distributed cache ("remote":true). Ring
# placement depends on content, so scan a few seeds; a seed whose key B
# itself owns legitimately detects locally and is skipped.
REMOTE_JSON=""
for seed in 11 12 13 14 15 16 17 18; do
    "$WORKDIR/mvpears" synth -text "unlock the back gate" -out "$WORKDIR/cl.wav" -seed "$seed"
    curl -fsS -X POST --data-binary @"$WORKDIR/cl.wav" -H 'Content-Type: audio/wav' \
        "http://$PUB_A/v1/detect" >/dev/null || fail "cluster detect on A (seed $seed)"
    R2=$(curl -fsS -X POST --data-binary @"$WORKDIR/cl.wav" -H 'Content-Type: audio/wav' \
        "http://$PUB_B/v1/detect") || fail "cluster detect on B (seed $seed)"
    if echo "$R2" | grep -q '"remote":true'; then REMOTE_JSON=$R2; break; fi
done
[ -n "$REMOTE_JSON" ] || fail "no remote cache hit on B in 8 seeds (cluster tier dead?)"
echo "$REMOTE_JSON" | grep -q '"cached":true' || fail "remote answer not marked cached: $REMOTE_JSON"
# One verdict leaves every replica as the same bytes: A's local hit, B's
# remote answer less its remote flag, and B's local hit on the record the
# owner sent are byte-identical.
HIT_A=$(curl -fsS -X POST --data-binary @"$WORKDIR/cl.wav" -H 'Content-Type: audio/wav' \
    "http://$PUB_A/v1/detect") || fail "repeat detect on A"
echo "$HIT_A" | grep -q '"cached":true' || fail "A's repeat is not a hit: $HIT_A"
[ "$(printf '%s' "$REMOTE_JSON" | sed 's/,"remote":true//')" = "$HIT_A" ] \
    || fail "B's remote answer differs from A's hit: $REMOTE_JSON vs $HIT_A"
HIT_B=$(curl -fsS -X POST --data-binary @"$WORKDIR/cl.wav" -H 'Content-Type: audio/wav' \
    "http://$PUB_B/v1/detect") || fail "repeat detect on B"
[ "$HIT_B" = "$HIT_A" ] || fail "B's local hit differs from A's hit: $HIT_B vs $HIT_A"
# Scraped into a variable first: under pipefail, `curl | grep -q` fails
# with curl's EPIPE whenever grep matches before the body is fully written.
METRICS_B=$(curl -fsS "http://$PUB_B/metrics")
echo "$METRICS_B" | grep -q 'mvpears_cluster_forwards_total{outcome="hit"}' \
    || fail "B's metrics missing the cluster forward-hit count"

echo "== cluster: forwarded detection =="
# Never-seen clips posted to B only: when the key's owner is A or C, B
# forwards the detection and the owner runs it ("remote":true without
# "cached":true). Seeds B owns itself detect locally and are skipped.
FWD_JSON=""; FWD_ID=""
for seed in 21 22 23 24 25 26 27 28; do
    "$WORKDIR/mvpears" synth -text "switch off the kitchen lights" -out "$WORKDIR/fw.wav" -seed "$seed"
    R=$(curl -fsS -X POST --data-binary @"$WORKDIR/fw.wav" -H 'Content-Type: audio/wav' \
        -H "X-Request-ID: smoke-fwd-$seed" \
        "http://$PUB_B/v1/detect") || fail "forward detect on B (seed $seed)"
    if echo "$R" | grep -q '"remote":true'; then FWD_JSON=$R; FWD_ID=smoke-fwd-$seed; break; fi
done
[ -n "$FWD_JSON" ] || fail "no forwarded detection from B in 8 seeds"
if echo "$FWD_JSON" | grep -q '"cached":true'; then fail "never-seen clip answered as cached: $FWD_JSON"; fi
# B's access-log line for that forward is a slow line whose spans hold
# the owner's transcription spans, stitched under the owner's address.
FWD_LINE=$(grep "\"request_id\":\"$FWD_ID\"" "$WORKDIR/replicaB.log") || fail "no access-log line on B for $FWD_ID"
echo "$FWD_LINE" | grep -q '"msg":"slow request"' || fail "B's line for $FWD_ID is not a slow line: $FWD_LINE"
echo "$FWD_LINE" | grep -Eq '"span":"transcribe:[^"@]+@127\.0\.0\.1:191' \
    || fail "B's line for $FWD_ID lacks a stitched owner transcribe span: $FWD_LINE"
METRICS_B=$(curl -fsS "http://$PUB_B/metrics")
echo "$METRICS_B" | grep -q 'mvpears_cluster_forwards_total{outcome="detected"}' \
    || fail "B's metrics missing the forwarded-detection count"
if echo "$METRICS_B" | grep -q 'mvpears_cluster_hedge'; then fail "B still exports a hedge metric family"; fi

echo "== cluster: hot reload under load =="
# Hammer C while its model hot-reloads; every request must answer 200.
( for i in $(seq 1 40); do
      curl -s -o /dev/null -w '%{http_code}\n' -X POST \
          --data-binary @"$WORKDIR/clip.wav" -H 'Content-Type: audio/wav' \
          "http://$PUB_C/v1/detect" || echo ERR
  done ) >"$WORKDIR/reload_codes.txt" &
LOAD_PID=$!
sleep 0.3
curl -fsS -X POST "http://$ADM_C/reloadz" | grep -q '"reloaded":true' || fail "POST /reloadz on C"
wait "$LOAD_PID"
CODES=$(sort -u "$WORKDIR/reload_codes.txt")
[ "$CODES" = "200" ] || fail "dropped requests during hot reload (status set: $CODES)"
[ "$(wc -l <"$WORKDIR/reload_codes.txt")" -eq 40 ] || fail "reload load loop lost requests"
curl -fsS "http://$ADM_C/infoz" | grep -q '"reloads":1' || fail "C's /infoz does not count the reload"

echo "== fleet observability =="
# The operator status page and the fleet metric families, probed on a
# replica that is part of the mesh and has served fresh detections.
STATUSZ=$(curl -fsS "http://$ADM_C/statusz") || fail "GET /statusz on C"
for want in "build:" "model:" "drift:" "probe:" "ring:"; do
    echo "$STATUSZ" | grep -q "$want" || fail "/statusz missing \"$want\" section: $STATUSZ"
done
METRICS_C=$(curl -fsS "http://$ADM_C/metrics")
echo "$METRICS_C" | grep -q 'mvpears_drift_score{family="engine:' \
    || fail "C's metrics missing per-engine drift scores"
# What the README's burn-rate rules read: the detect latency bucket at
# the 250 ms bound, and the detect requests by status code.
echo "$METRICS_C" | grep -qF 'mvpears_request_duration_seconds_bucket{route="detect",le="0.25"}' \
    || fail "C's metrics missing the detect latency bucket at 0.25 s"
echo "$METRICS_C" | grep -qF 'mvpears_requests_total{route="detect",code="200"}' \
    || fail "C's metrics missing the detect route's 200 count"
echo "$METRICS_C" | grep -q 'mvpears_build_info{' || fail "C's metrics missing build identity"
echo "$METRICS_C" | grep -q 'mvpears_model_info{fingerprint=' || fail "C's metrics missing model identity"
echo "$METRICS_C" | grep -q 'mvpears_rejected_total{reason="queue_full"} 0' \
    || fail "C's metrics missing pre-created rejection reasons"
# The requester side of the earlier remote hit timed the peer round trip.
echo "$METRICS_B" | grep -q 'mvpears_cluster_rtt_seconds_count{peer="' \
    || fail "B's metrics missing the per-peer RTT histogram after a forward"

echo "smoke OK"
