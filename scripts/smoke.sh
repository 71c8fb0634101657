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
#      headline is kept as the cluster phase's reference);
#   2b. query: same fleet into an ingestd running -segment-dir; the admin
#      /query over the whole span must report the same record count and
#      attributed total energy as /headline (two independent paths: shard
#      accumulators vs the tsq engine re-reading the METR-3 segments),
#      the block seek index must be in play, an hourly rollup asked
#      twice must come from the window memo the second time with the
#      same answer, and after the drain the tsq CLI over the sealed
#      directory must agree with the live answers;
#   3. chaos: same fleet against a FRESH server (the devices restart their
#      streams from sequence 0) through the fault injector — drops and bit
#      corruption on the wire — and require the sever/resume/dedup loop to
#      still deliver every record exactly once;
#   4. cluster: same fleet across a three-node cluster behind aggregatord,
#      with one node kill -9'd as soon as it has accepted records and
#      written a checkpoint: a base and a delta frame after it, and every
#      device has reached its owner — each member must then hold 20-50 % of
#      the devices (placement, end to end). The
#      probers must declare it dead, its checkpoint must hand off to the
#      survivors, the sessions must walk their ring preference and resume,
#      and the merged fleet headline must equal the single-node reference
#      from phase 2 — ints exactly, floats within 1e-6 relative;
#   5. chaos-cluster: same fleet across a fresh three-node -durable-fin
#      cluster, with one node SIGSTOP'd mid-run — the partition analogue: the
#      process stays alive holding its state while the fleet routes around
#      it. Its checkpoint, again a base with frames after it, hands off to
#      the survivors; on SIGCONT the zombie resurfaces and the aggregator
#      must fence it (not merge it twice). The settled fleet headline must
#      again equal the phase-2 reference, and the fenced node must still
#      drain cleanly.
# Run via `make smoke` (needs ./bin built).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=${SMOKE_ADDR:-127.0.0.1:19909}
ADMIN=${SMOKE_ADMIN:-127.0.0.1:19910}
AGG=${SMOKE_AGG:-127.0.0.1:19920}
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

# require_headline_match compares a fleet headline against the phase-2
# single-node reference: ints exactly, floats within 1e-6 relative.
require_headline_match() { # fleet headline file
  local f=$1 k a b
  for k in devices records; do
    a=$(jfield "$WORK/ref.json" "$k"); b=$(jfield "$f" "$k")
    if [ "$a" != "$b" ]; then
      echo "smoke: fleet headline $k = $b, single-node reference $a" >&2
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
      echo "smoke: fleet headline $k = $b, single-node reference $a (>1e-6 relative)" >&2
      exit 1
    fi
  done
}

# has_delta_frame: the checkpoint directory holds a delta log with something
# in it, so what a restart or a handoff reads from it is a base plus frames.
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
  for k in ingest_query_windows_memoised_total ingest_query_memo_bytes; do
    if ! echo "$metrics" | grep -Eq "^$k [1-9]"; then
      echo "smoke: $k did not move: $(echo "$metrics" | grep "^$k")" >&2
      exit 1
    fi
  done

  kill -TERM "$pid"
  if ! wait "$pid"; then
    echo "smoke: ingestd did not drain cleanly (query phase)" >&2
    exit 1
  fi
  pid=

  # Offline: the tsq CLI, which has no memo, must give the windowed
  # answer the live endpoint gave both times.
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

  # Offline: the tsq CLI over the sealed directory must agree with the
  # live endpoint's answer.
  ./bin/tsq -dir "$segdir" -from 0 -to "$to" -json > "$WORK/query-offline.json"
  if [ "$(jfield "$WORK/query-offline.json" records)" != "$recs" ]; then
    echo "smoke: offline tsq saw $(jfield "$WORK/query-offline.json" records) records, want $recs" >&2
    exit 1
  fi
  require_close "offline tsq total_energy_j" \
    "$(jfield "$WORK/query.json" total_energy_j)" "$(jfield "$WORK/query-offline.json" total_energy_j)"
  echo "smoke: query phase ok ($recs records, $skipped blocks pruned on the narrow window, $memoised windows memoised)"
}

run_cluster() {
  local cluster="n1=127.0.0.1:19911/127.0.0.1:19912,n2=127.0.0.1:19913/127.0.0.1:19914,n3=127.0.0.1:19915/127.0.0.1:19916"
  local streams="127.0.0.1:19911,127.0.0.1:19913,127.0.0.1:19915"
  local dirs=("$WORK/n1" "$WORK/n2" "$WORK/n3")
  mkdir -p "${dirs[@]}"

  # -handoff-on-drain=false: this phase exercises the crash handoff (the
  # aggregator ships the dead node's checkpoint); the survivors' graceful
  # drain at the end has no live peers left to ship to.
  local i
  for i in 1 2 3; do
    ./bin/ingestd -listen "127.0.0.1:199$((9 + 2 * i))" -admin "127.0.0.1:199$((10 + 2 * i))" \
      -node-id "n$i" -cluster "$cluster" -shards 4 \
      -checkpoint-dir "${dirs[$((i - 1))]}" -checkpoint-interval 250ms \
      -heartbeat 250ms -fail-threshold 2 -handoff-on-drain=false &
    pids+=($!)
  done
  local victim=${pids[1]} # n2, admin 127.0.0.1:19914
  ./bin/aggregatord -listen "$AGG" -cluster "$cluster" \
    -handoff-dirs "n1=${dirs[0]},n2=${dirs[1]},n3=${dirs[2]}" \
    -interval 400ms -heartbeat 250ms -fail-threshold 2 &
  pids+=($!)

  # Chaos step: pull n2's plug (SIGKILL, no drain) the moment it has
  # accepted records AND written a durable checkpoint — a base and at least
  # one delta frame after it, or the handoff below never folds a log — so
  # the death lands mid-run with state on disk to hand off. The kill also
  # waits until every device has said hello to its owner (the members'
  # /stats device counts sum to $DEVICES) and records those counts: the
  # last moment all three members are up is the one placement reading.
  (
    for _ in $(seq 1 600); do
      st=$(curl -fsS "http://127.0.0.1:19914/stats" 2>/dev/null || true)
      recs=$(printf '%s' "$st" | grep -o '"records":[[:space:]]*[0-9]*' | head -1 | tr -dc 0-9)
      gen=$(printf '%s' "$st" | grep -o '"generation":[[:space:]]*[0-9]*' | head -1 | tr -dc 0-9)
      held=()
      for admin in 19912 19914 19916; do
        held+=("$(curl -fsS "http://127.0.0.1:$admin/stats" 2>/dev/null | grep -o '"devices":[[:space:]]*[0-9]*' | head -1 | tr -dc 0-9)")
      done
      if [ -n "${recs:-}" ] && [ "$recs" -gt 0 ] && [ -n "${gen:-}" ] && [ "$gen" -ge 1 ] && has_delta_frame "${dirs[1]}" &&
        [ $((${held[0]:-0} + ${held[1]:-0} + ${held[2]:-0})) -ge "$DEVICES" ]; then
        kill -9 "$victim"
        echo "${held[0]:-0} ${held[1]:-0} ${held[2]:-0}" > "$WORK/placement"
        exit 0
      fi
      sleep 0.05
    done
    exit 1
  ) &
  local killer=$!

  # fleetsim routes every session by the shared ring, follows redirect
  # acks, and reconciles its acked-record counters against the
  # aggregator's merged exposition — exactly-once across the node death.
  # -speedup paces each device's day over ~10s of wall time so the kill
  # lands while every stream is still active: an active session
  # retransmits what the dead node acked past its last checkpoint,
  # whereas a completed session's records in that window are gone with
  # the node (FIN ack ≠ durable — durability is the checkpoint; see
  # DESIGN.md). Unpaced, small devices finish inside the first
  # checkpoint interval and the kill loses their tail nondeterministically.
  ./bin/fleetsim -nodes "$streams" -aggregator "http://$AGG" \
    -devices "$DEVICES" -days "$DAYS" -seed 7 -deadline 5m -speedup 8640

  if ! wait "$killer"; then
    echo "smoke: victim node was never killed (n2 never held records, a checkpoint base and a delta frame after it with all $DEVICES devices placed)" >&2
    exit 1
  fi

  # Placement, end to end: at the kill every member held 20-50 % of the
  # fleet (a fair share is 33 %). The parent's bare-FNV ring put 0 devices
  # on n1 and 100 each on n2 and n3, and nothing else in `make ci` sees it.
  local held
  read -r -a held < "$WORK/placement"
  for i in 0 1 2; do
    if [ $((100 * ${held[$i]})) -lt $((20 * DEVICES)) ] || [ $((100 * ${held[$i]})) -gt $((50 * DEVICES)) ]; then
      echo "smoke: n$((i + 1)) held ${held[$i]} of $DEVICES devices, want 20-50 % (n1/n2/n3: ${held[*]})" >&2
      exit 1
    fi
  done
  echo "smoke: placement ok (n1/n2/n3 held ${held[*]} of $DEVICES devices)"

  # The kill can land after fleetsim's reconcile; settle again so the
  # comparison below always sees the post-death, post-handoff fleet.
  local want_records live recs
  want_records=$(jfield "$WORK/ref.json" records)
  for _ in $(seq 1 300); do
    m=$(curl -fsS "http://$AGG/metrics" 2>/dev/null || true)
    live=$(printf '%s' "$m" | awk '/^aggregator_nodes_live /{print int($2)}')
    recs=$(printf '%s' "$m" | awk '/^aggregator_records /{print int($2)}')
    if [ "${live:-3}" -eq 2 ] && [ "${recs:-0}" -eq "$want_records" ]; then break; fi
    sleep 0.1
  done
  if [ "${live:-3}" -ne 2 ] || [ "${recs:-0}" -ne "$want_records" ]; then
    echo "smoke: cluster did not settle after kill (nodes_live=${live:-?} records=${recs:-?}, want 2/$want_records)" >&2
    exit 1
  fi
  curl -fsS "http://$AGG/headline" > "$WORK/fleet.json"

  require_headline_match "$WORK/fleet.json"
  echo "smoke: fleet headline matches single-node reference ($want_records records across survivors)"

  # Graceful drain of the survivors and the aggregator: all must exit 0.
  local p
  for p in "${pids[@]}"; do
    [ "$p" = "$victim" ] && continue
    kill -TERM "$p" 2>/dev/null || true
  done
  for p in "${pids[@]}"; do
    [ "$p" = "$victim" ] && continue
    if ! wait "$p"; then
      echo "smoke: cluster process $p did not drain cleanly" >&2
      exit 1
    fi
  done
  pids=()
  echo "smoke: cluster phase ok"
}

run_chaos_cluster() {
  local cluster="n1=127.0.0.1:19911/127.0.0.1:19912,n2=127.0.0.1:19913/127.0.0.1:19914,n3=127.0.0.1:19915/127.0.0.1:19916"
  local streams="127.0.0.1:19911,127.0.0.1:19913,127.0.0.1:19915"
  local dirs=("$WORK/c1" "$WORK/c2" "$WORK/c3")
  mkdir -p "${dirs[@]}"

  local i
  for i in 1 2 3; do
    ./bin/ingestd -listen "127.0.0.1:199$((9 + 2 * i))" -admin "127.0.0.1:199$((10 + 2 * i))" \
      -node-id "n$i" -cluster "$cluster" -shards 4 \
      -checkpoint-dir "${dirs[$((i - 1))]}" -checkpoint-interval 250ms -durable-fin \
      -heartbeat 250ms -fail-threshold 2 -handoff-on-drain=false &
    pids+=($!)
  done
  local victim=${pids[1]} # n2, admin 127.0.0.1:19914
  ./bin/aggregatord -listen "$AGG" -cluster "$cluster" \
    -handoff-dirs "n1=${dirs[0]},n2=${dirs[1]},n3=${dirs[2]}" \
    -interval 400ms -heartbeat 250ms -fail-threshold 2 \
    -pull-attempts 3 -handoff-attempts 4 &
  pids+=($!)

  # Partition step: freeze n2 (SIGSTOP, sockets stay open, state stays in
  # memory) the moment it has accepted records and written a checkpoint, a
  # delta frame after its base included.
  # Unlike the kill phase's SIGKILL, the process survives to resurface
  # later holding already-handed-off state — the zombie the fence exists for.
  (
    for _ in $(seq 1 600); do
      st=$(curl -fsS "http://127.0.0.1:19914/stats" 2>/dev/null || true)
      recs=$(printf '%s' "$st" | grep -o '"records":[[:space:]]*[0-9]*' | head -1 | tr -dc 0-9)
      gen=$(printf '%s' "$st" | grep -o '"generation":[[:space:]]*[0-9]*' | head -1 | tr -dc 0-9)
      if [ -n "${recs:-}" ] && [ "$recs" -gt 0 ] && [ -n "${gen:-}" ] && [ "$gen" -ge 1 ] && has_delta_frame "${dirs[1]}"; then
        kill -STOP "$victim"
        exit 0
      fi
      sleep 0.05
    done
    exit 1
  ) &
  local freezer=$!

  # With -durable-fin every FIN ack is backed by a checkpoint, so even the
  # frozen node's completed sessions survive intact through the handoff:
  # the fleet must reconcile exactly, not just approximately.
  ./bin/fleetsim -nodes "$streams" -aggregator "http://$AGG" \
    -devices "$DEVICES" -days "$DAYS" -seed 7 -deadline 5m -speedup 8640

  if ! wait "$freezer"; then
    echo "smoke: victim node was never frozen (n2 never held records, a checkpoint base and a delta frame after it)" >&2
    exit 1
  fi

  # Wait for the frozen node's checkpoint to hand off to the survivors,
  # then heal the partition: the zombie resurfaces and must be fenced
  # before its stale snapshot can re-enter a merge.
  local m handoffs fenced
  for _ in $(seq 1 300); do
    m=$(curl -fsS "http://$AGG/metrics" 2>/dev/null || true)
    handoffs=$(printf '%s' "$m" | awk '/^aggregator_handoffs_total /{print int($2)}')
    if [ "${handoffs:-0}" -ge 1 ]; then break; fi
    sleep 0.1
  done
  if [ "${handoffs:-0}" -lt 1 ]; then
    echo "smoke: frozen node's checkpoint never handed off" >&2
    exit 1
  fi
  kill -CONT "$victim"

  # Settle: the fenced zombie is excluded from the live merge (nodes_live
  # drops to 2 even though all three processes answer /healthz) and the
  # record count must hold at the reference — no double count.
  local want_records live recs
  want_records=$(jfield "$WORK/ref.json" records)
  for _ in $(seq 1 300); do
    m=$(curl -fsS "http://$AGG/metrics" 2>/dev/null || true)
    live=$(printf '%s' "$m" | awk '/^aggregator_nodes_live /{print int($2)}')
    recs=$(printf '%s' "$m" | awk '/^aggregator_records /{print int($2)}')
    fenced=$(printf '%s' "$m" | awk '/^aggregator_fenced_skips_total /{print int($2)}')
    if [ "${live:-3}" -eq 2 ] && [ "${recs:-0}" -eq "$want_records" ] && [ "${fenced:-0}" -ge 1 ]; then break; fi
    sleep 0.1
  done
  if [ "${live:-3}" -ne 2 ] || [ "${recs:-0}" -ne "$want_records" ] || [ "${fenced:-0}" -lt 1 ]; then
    echo "smoke: cluster did not settle after heal (nodes_live=${live:-?} records=${recs:-?} fenced_skips=${fenced:-?}, want 2/$want_records/>=1)" >&2
    exit 1
  fi

  # Durable FIN must have actually engaged on the survivors.
  local findur
  findur=$(curl -fsS "http://127.0.0.1:19912/metrics" "http://127.0.0.1:19916/metrics" 2>/dev/null |
    awk '/^ingest_fin_durable_total /{n += $2} END {print int(n)}')
  if [ "${findur:-0}" -lt 1 ]; then
    echo "smoke: ingest_fin_durable_total = ${findur:-0} across survivors, want >= 1 (-durable-fin not engaged)" >&2
    exit 1
  fi

  curl -fsS "http://$AGG/headline" > "$WORK/fleet-chaos.json"
  require_headline_match "$WORK/fleet-chaos.json"
  echo "smoke: fleet headline matches single-node reference through freeze + fence ($want_records records)"

  # Graceful drain: every process — including the fenced zombie — must
  # exit 0. A fenced node skips its final checkpoint (the archive already
  # holds its history) but still drains its shards cleanly.
  local p
  for p in "${pids[@]}"; do
    kill -TERM "$p" 2>/dev/null || true
  done
  for p in "${pids[@]}"; do
    if ! wait "$p"; then
      echo "smoke: chaos-cluster process $p did not drain cleanly" >&2
      exit 1
    fi
  done
  pids=()
  echo "smoke: chaos-cluster phase ok"
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
run_cluster
run_chaos_cluster
trap - EXIT
rm -rf "$WORK"
echo "smoke: ok"
