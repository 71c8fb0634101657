#!/usr/bin/env bash
# End-to-end ingest smoke test, seven phases:
#   1. golden: batch and streamed analysis must still reproduce
#      testdata/golden.json;
#   1b. refuse: a generated file sniffs as metr3; the same file under the
#      METR-2 magic makes analyze -data and tracecat -trace exit 1 with the
#      message that names the commit whose tracecat -convert migrates it;
#   1c. early-signal: SIGTERM the instant ingestd is listening must still
#      drain and exit zero — the handler is installed before anything
#      listens;
#   2. clean: stream a 200-device synthetic fleet into a local ingestd and
#      require zero dropped records and a clean SIGTERM drain (the final
#      headline is kept as the kill phase's reference);
#   2b. query: same fleet into an ingestd running -segment-dir; the admin
#      /query over the whole span must report the same record count and
#      attributed total energy as /headline (two independent paths: shard
#      accumulators vs the tsq engine re-reading the METR-3 segments),
#      the block seek index must be in play, an hourly rollup asked
#      twice must come from the window memo the second time with the
#      same answer, which the tsq CLI must give too; then tsq -retain
#      folds the node's sealed history under it into day windows, and
#      /query must still give the day-windowed total it gave before,
#      downsampled, twice alike, as must the tsq CLI after the drain;
#   3. chaos: same fleet against a FRESH server (the devices restart their
#      streams from sequence 0) through the fault injector — drops and bit
#      corruption on the wire — and require the sever/resume/dedup loop to
#      still deliver every record exactly once;
#   4. kill: same fleet, paced, into one ingestd running -checkpoint-dir
#      -durable-fin -segment-dir, kill -9'd as soon as it has accepted
#      records and its checkpoint directory holds a base and a delta frame
#      after it, then restarted on the same directories and ports with
#      -shards 3 instead of 4, so every recovered device is re-placed. It must
#      say which checkpoint generation it recovered, the sessions must resume
#      through their retry and backoff with zero dropped records, the
#      restarted node must have acked at least one FIN durably, and its final
#      headline must equal the phase-2 reference — ints exactly, floats
#      within 1e-6 relative.
# Run via `make smoke` (needs ./bin built).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=${SMOKE_ADDR:-127.0.0.1:19909}
ADMIN=${SMOKE_ADMIN:-127.0.0.1:19910}
DEVICES=${SMOKE_DEVICES:-200}
DAYS=${SMOKE_DAYS:-1}

WORK=$(mktemp -d)
pid=
pids=()
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  for p in "${pids[@]+"${pids[@]}"}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

run_phase() { # name, extra fleetsim flags...
  local name=$1
  shift
  ./bin/ingestd -listen "$ADDR" -admin "$ADMIN" &
  pid=$!
  # fleetsim retries the dial with backoff, so no readiness poll is
  # needed. It exits non-zero if the server's accepted-record counters
  # disagree per device with what was acked client-side.
  ./bin/fleetsim -addr "$ADDR" -admin "http://$ADMIN" \
    -devices "$DEVICES" -days "$DAYS" -seed 7 "$@"

  # Graceful drain: SIGTERM must flush shard state and exit zero.
  kill -TERM "$pid"
  if ! wait "$pid"; then
    echo "smoke: ingestd did not drain cleanly ($name phase)" >&2
    exit 1
  fi
  pid=
  echo "smoke: $name phase ok"
}

# run_early_signal: a supervisor that stops a node the moment it is up must
# get a drain, not a kill. "Up" is the admin port accepting — the last thing
# ingestd does before it prints its listen line — and the start is repeated
# because the stretch a late handler leaves open is a fraction of a
# millisecond (ten rounds caught the old ordering about five times in six).
run_early_signal() {
  local log="$WORK/early.log" round
  for round in 1 2 3 4 5 6 7 8 9 10; do
    rm -rf "$WORK/early-ckpt" "$WORK/early-seg"
    ./bin/ingestd -listen "$ADDR" -admin "$ADMIN" \
      -checkpoint-dir "$WORK/early-ckpt" -segment-dir "$WORK/early-seg" > "$log" 2>&1 &
    pid=$!
    until (exec 3<>"/dev/tcp/${ADMIN%:*}/${ADMIN##*:}") 2>/dev/null; do
      kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; echo "smoke: ingestd exited before listening" >&2; exit 1; }
    done
    kill -TERM "$pid"
    if ! wait "$pid" || ! grep -q 'ingestd: drained 0 devices' "$log"; then
      cat "$log" >&2
      echo "smoke: SIGTERM as ingestd came up did not drain cleanly (round $round)" >&2
      exit 1
    fi
    pid=
  done
  echo "smoke: early-signal phase ok"
}

# jfield extracts one numeric field from an indented JSON headline.
jfield() { # file key
  grep -o "\"$2\":[[:space:]]*[-0-9.eE+]*" "$1" | head -1 | sed 's/.*:[[:space:]]*//'
}

# require_headline_match compares a headline against the phase-2 reference:
# ints exactly, floats within 1e-6 relative.
require_headline_match() { # headline file
  local f=$1 k a b
  for k in devices records; do
    a=$(jfield "$WORK/ref.json" "$k"); b=$(jfield "$f" "$k")
    if [ "$a" != "$b" ]; then
      echo "smoke: headline $k = $b, phase-2 reference $a" >&2
      exit 1
    fi
  done
  for k in total_energy_j background_fraction first_minute_fraction; do
    a=$(jfield "$WORK/ref.json" "$k"); b=$(jfield "$f" "$k")
    if ! awk -v a="$a" -v b="$b" 'BEGIN {
      d = a - b; if (d < 0) d = -d
      m = a; if (m < 0) m = -m
      exit (d <= 1e-6 * (1 + m) ? 0 : 1)
    }'; then
      echo "smoke: headline $k = $b, phase-2 reference $a (>1e-6 relative)" >&2
      exit 1
    fi
  done
}

# has_delta_frame: the checkpoint directory holds a delta log with something
# in it, so what a restart reads from it is a base plus frames.
has_delta_frame() { # dir
  [ -n "$(find "$1" -maxdepth 1 -name 'ck-*.log' -size +0c 2>/dev/null)" ]
}

# require_close compares two floats within 1e-6 relative.
require_close() { # label a b
  if ! awk -v a="$2" -v b="$3" 'BEGIN {
    d = a - b; if (d < 0) d = -d
    m = a; if (m < 0) m = -m
    exit (d <= 1e-6 * (1 + m) ? 0 : 1)
  }'; then
    echo "smoke: $1 = $3, want $2 (>1e-6 relative)" >&2
    exit 1
  fi
}

run_query() {
  local segdir="$WORK/seg"
  mkdir -p "$segdir"
  ./bin/ingestd -listen "$ADDR" -admin "$ADMIN" -segment-dir "$segdir" &
  pid=$!
  ./bin/fleetsim -addr "$ADDR" -admin "http://$ADMIN" \
    -devices "$DEVICES" -days "$DAYS" -seed 7

  # Live: /query over everything vs /headline — same totals, two
  # independent computations. The query range must cover ALL records, not
  # just [span_start, span_end]: the headline span tracks network
  # activity, and devices emit app-name/proc-state records outside it, so
  # the upper bound is pushed a day past the span end.
  curl -fsS "http://$ADMIN/headline" > "$WORK/qhead.json"
  local span_end to recs qrecs blocks skipped
  span_end=$(jfield "$WORK/qhead.json" span_end_us)
  to=$((span_end + 86400000000))
  curl -fsS "http://$ADMIN/query?from=0&to=$to" > "$WORK/query.json"
  recs=$(jfield "$WORK/qhead.json" records)
  qrecs=$(jfield "$WORK/query.json" records)
  if [ "$recs" != "$qrecs" ]; then
    echo "smoke: /query saw $qrecs records, /headline $recs" >&2
    exit 1
  fi
  require_close "live query total_energy_j" \
    "$(jfield "$WORK/qhead.json" total_energy_j)" "$(jfield "$WORK/query.json" total_energy_j)"
  blocks=$(jfield "$WORK/query.json" blocks_total)
  if [ "${blocks:-0}" -le 0 ]; then
    echo "smoke: /query scanned no indexed blocks (blocks_total=$blocks)" >&2
    exit 1
  fi
  # A narrow window must actually prune blocks via the seek index.
  skipped=$(curl -fsS "http://$ADMIN/query?from=$((span_end - 3600000000))&to=$to" | grep -o '"blocks_skipped":[[:space:]]*[0-9]*' | head -1 | tr -dc 0-9)
  if [ "${skipped:-0}" -le 0 ]; then
    echo "smoke: narrow /query skipped no blocks (blocks_skipped=$skipped)" >&2
    exit 1
  fi

  # The same hourly rollup of the whole span asked twice: the second
  # answer comes out of the window memo and must be the first.
  local wfrom memoised metrics k
  wfrom=$(($(jfield "$WORK/qhead.json" span_start_us) - 86400000000))
  curl -fsS "http://$ADMIN/query?from=$wfrom&to=$to&window=hour" > "$WORK/qwin1.json"
  curl -fsS "http://$ADMIN/query?from=$wfrom&to=$to&window=hour" > "$WORK/qwin2.json"
  memoised=$(jfield "$WORK/qwin2.json" windows_memoised)
  if [ "${memoised:-0}" -le 0 ]; then
    echo "smoke: repeated windowed /query served nothing from the memo (windows_memoised=$memoised)" >&2
    exit 1
  fi
  metrics=$(curl -fsS "http://$ADMIN/metrics")
  for k in ingest_query_windows_memoised_total ingest_query_memo_bytes ingest_query_memo_index_bytes ingest_query_memo_block_bytes; do
    if ! echo "$metrics" | grep -Eq "^$k [1-9]"; then
      echo "smoke: $k did not move: $(echo "$metrics" | grep "^$k")" >&2
      exit 1
    fi
  done
  # Nothing is evicted inside the budget, but the counters must be there.
  for k in ingest_query_memo_windows_evicted_total ingest_query_memo_indexes_evicted_total ingest_query_memo_blocks_evicted_total; do
    if ! echo "$metrics" | grep -Eq "^$k [0-9]+$"; then
      echo "smoke: /metrics has no $k" >&2
      exit 1
    fi
  done

  # The tsq CLI, which has no memo and lists the directory itself, must
  # give the windowed answer the live endpoint gave both times.
  ./bin/tsq -dir "$segdir" -from "$wfrom" -to "$to" -window hour -json > "$WORK/qwin-offline.json"
  local f
  for f in qwin2 qwin-offline; do
    if [ "$(jfield "$WORK/$f.json" records)" != "$recs" ] ||
      [ "$(jfield "$WORK/$f.json" total_energy_j)" != "$(jfield "$WORK/qwin1.json" total_energy_j)" ] ||
      [ "$(grep -o '"start_us"' "$WORK/$f.json" | wc -l)" != "$(grep -o '"start_us"' "$WORK/qwin1.json" | wc -l)" ]; then
      echo "smoke: windowed answers disagree: $f has $(jfield "$WORK/$f.json" records) records," \
        "$(jfield "$WORK/$f.json" total_energy_j) J; first live answer $(jfield "$WORK/qwin1.json" records)," \
        "$(jfield "$WORK/qwin1.json" total_energy_j) J; /headline $recs records" >&2
      exit 1
    fi
  done

  # Retention under the running node: the fleet's history is far older
  # than an hour, so tsq folds every sealed segment into a rollup of day
  # windows and deletes it. The node's catalog must then answer the whole
  # span from the rollup — the total its day-windowed answer had before,
  # marked downsampled — and answer it again the same (the scan block
  # aside). Day windows, not /headline: each window is accounted on its
  # own (analysis.WindowedAccumulator), so a tail cut at midnight makes
  # their sum differ from the whole-stream total by ~1e-5.
  curl -fsS "http://$ADMIN/query?from=0&to=$to&window=day" > "$WORK/qday.json"
  local folded
  folded=$(./bin/tsq -dir "$segdir" -retain 1h -retain-window day | grep -o 'from [0-9]* segments' | tr -dc 0-9)
  if [ "${folded:-0}" -le 0 ]; then
    echo "smoke: retention under the live node folded no segment" >&2
    exit 1
  fi
  curl -fsS "http://$ADMIN/query?from=0&to=$to&window=day" > "$WORK/qret1.json"
  curl -fsS "http://$ADMIN/query?from=0&to=$to&window=day" > "$WORK/qret2.json"
  require_close "live day-windowed total_energy_j after retention" \
    "$(jfield "$WORK/qday.json" total_energy_j)" "$(jfield "$WORK/qret1.json" total_energy_j)"
  if ! grep -q '"downsampled":true' "$WORK/qret1.json"; then
    echo "smoke: /query after retention is not marked downsampled" >&2
    exit 1
  fi
  if [ "$(sed 's/"scan":{[^}]*}//' "$WORK/qret1.json")" != "$(sed 's/"scan":{[^}]*}//' "$WORK/qret2.json")" ]; then
    echo "smoke: repeated /query after retention answered differently" >&2
    exit 1
  fi

  kill -TERM "$pid"
  if ! wait "$pid"; then
    echo "smoke: ingestd did not drain cleanly (query phase)" >&2
    exit 1
  fi
  pid=

  # Offline: the tsq CLI over the drained directory must agree with the
  # live endpoint's answer.
  ./bin/tsq -dir "$segdir" -from 0 -to "$to" -window day -json > "$WORK/query-offline.json"
  require_close "offline tsq total_energy_j" \
    "$(jfield "$WORK/qday.json" total_energy_j)" "$(jfield "$WORK/query-offline.json" total_energy_j)"
  echo "smoke: query phase ok ($recs records, $skipped blocks pruned on the narrow window, $memoised windows memoised, $folded segments retained under the live node)"
}

# run_kill: process-level crash recovery on one node. The restart reuses the
# directories and ports, so fleetsim's sessions, which retry the dial with
# backoff, reconnect to it and resume from the sequence it recovered. It runs
# 3 shards where the first process ran 4, so restore re-places every device.
run_kill() {
  local ckdir="$WORK/kill-ck" segdir="$WORK/kill-seg" log="$WORK/kill.log"
  local node=(./bin/ingestd -listen "$ADDR" -admin "$ADMIN"
    -checkpoint-dir "$ckdir" -checkpoint-interval 250ms -durable-fin -segment-dir "$segdir")
  mkdir -p "$ckdir" "$segdir"
  "${node[@]}" -shards 4 > "$WORK/kill-first.log" 2>&1 &
  pid=$!

  # Pull the plug (SIGKILL, no drain) the moment the node has accepted
  # records and made a checkpoint durable as a base with at least one delta
  # frame after it, so the restart folds a log.
  (
    for _ in $(seq 1 600); do
      st=$(curl -fsS "http://$ADMIN/stats" 2>/dev/null || true)
      recs=$(printf '%s' "$st" | grep -o '"records":[[:space:]]*[0-9]*' | head -1 | tr -dc 0-9)
      gen=$(printf '%s' "$st" | grep -o '"generation":[[:space:]]*[0-9]*' | head -1 | tr -dc 0-9)
      if [ -n "${recs:-}" ] && [ "$recs" -gt 0 ] && [ -n "${gen:-}" ] && [ "$gen" -ge 1 ] && has_delta_frame "$ckdir"; then
        kill -9 "$pid"
        exit 0
      fi
      sleep 0.05
    done
    exit 1
  ) &
  local killer=$!
  pids+=("$killer")

  # -speedup paces each device's day over ~10 s of wall time, so the kill
  # lands while sessions are open. With -durable-fin a FIN acked before the
  # kill is in the checkpoint, and an open session resumes from the
  # recovered sequence, so the restarted node must hold every record once.
  ./bin/fleetsim -addr "$ADDR" -admin "http://$ADMIN" \
    -devices "$DEVICES" -days "$DAYS" -seed 7 -deadline 5m -speedup 8640 \
    -headline-json "$WORK/kill.json" > "$WORK/kill-fleetsim.log" 2>&1 &
  local fleet=$!
  pids+=("$fleet")

  if ! wait "$killer"; then
    cat "$WORK/kill-first.log" >&2
    echo "smoke: ingestd was never killed (no records, or no checkpoint base with a delta frame after it)" >&2
    exit 1
  fi
  wait "$pid" 2>/dev/null || true
  "${node[@]}" -shards 3 > "$log" 2>&1 &
  pid=$!

  if ! wait "$fleet"; then
    cat "$WORK/kill-fleetsim.log" "$log" >&2
    echo "smoke: fleetsim did not deliver every record across the kill" >&2
    exit 1
  fi
  pids=()
  cat "$WORK/kill-fleetsim.log"
  local recovered findur
  recovered=$(grep -o 'recovered checkpoint generation [0-9]*.*' "$log" || true)
  if [ -z "$recovered" ]; then
    cat "$log" >&2
    echo "smoke: the restarted ingestd recovered no checkpoint generation" >&2
    exit 1
  fi
  echo "smoke: $recovered"
  findur=$(curl -fsS "http://$ADMIN/metrics" | awk '/^ingest_fin_durable_total /{print int($2)}')
  if [ "${findur:-0}" -lt 1 ]; then
    echo "smoke: ingest_fin_durable_total = ${findur:-0} after the restart, want >= 1 (-durable-fin not engaged)" >&2
    exit 1
  fi
  require_headline_match "$WORK/kill.json"
  echo "smoke: headline after kill -9 and restart matches the phase-2 reference ($(jfield "$WORK/kill.json" records) records, $findur durable FINs)"

  kill -TERM "$pid"
  if ! wait "$pid"; then
    cat "$log" >&2
    echo "smoke: restarted ingestd did not drain cleanly (kill phase)" >&2
    exit 1
  fi
  pid=
  echo "smoke: kill phase ok"
}

# Golden end-to-end check: batch and streamed analysis of the fixed-seed
# fleet must still reproduce testdata/golden.json bit-for-bit (ints) /
# within 1e-9 (floats). Catches silent drift in the numeric pipeline that
# the load phases below cannot see.
go test -run '^TestGolden$' -count=1 .
echo "smoke: golden phase ok"

# Refuse phase: METR-3 is the one container on disk; a file an older build
# wrote in METR-2 (here: a generated METR-3 file under the METR-2 magic) is
# refused on the way in by both CLIs, exit 1, with the migration message.
gen_dir="$WORK/refuse"
./bin/gentrace -out "$gen_dir" -users 1 -days 1 -seed 7 >/dev/null 2>&1
case $(./bin/tracecat -trace "$gen_dir/u00.metr") in
  *"metr3 container"*) ;;
  *) echo "smoke: refuse: gentrace did not write a metr3 container" >&2; exit 1 ;;
esac
printf 'METR2\n' | dd of="$gen_dir/u00.metr" bs=1 conv=notrunc status=none
for cmd in "./bin/analyze -data $gen_dir" "./bin/tracecat -trace $gen_dir/u00.metr"; do
  rc=0
  $cmd > "$gen_dir/out" 2>&1 || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q 'METR-2 container.*tracecat -convert.*9ef790b' "$gen_dir/out"; then
    echo "smoke: refuse: $cmd exited $rc, want 1 with the migration message:" >&2
    cat "$gen_dir/out" >&2
    exit 1
  fi
done
echo "smoke: refuse phase ok (METR-2 magic refused by analyze and tracecat)"

run_early_signal
run_phase clean -headline-json "$WORK/ref.json"
run_query
run_phase chaos -chaos-drop 0.05 -chaos-corrupt 0.01 -chaos-seed 7 -deadline 5m
run_kill
trap - EXIT
rm -rf "$WORK"
echo "smoke: ok"
