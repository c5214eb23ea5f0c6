#!/usr/bin/env bash
# Repo verification: format, lints (best-effort offline), tier-1 build+test.
#
#   scripts/verify.sh                # everything
#   scripts/verify.sh --fast         # skip the release build
#   scripts/verify.sh --fault-matrix # only the fault-injection serve matrix
#   scripts/verify.sh --sharded-smoke # only the sharded serve smokes
#   scripts/verify.sh --serve-tcp-smoke # only the TCP front-end smoke
#   scripts/verify.sh --sub-smoke    # only the standing-subscription smoke
#   scripts/verify.sh --replica-smoke # only the log-shipping replica smoke
#   scripts/verify.sh --chaos-smoke  # only the failover/netfault chaos smoke
#   scripts/verify.sh --adaptive-smoke # only the adaptive-sharding smoke
#
# Clippy is best-effort: on a fully offline container a missing
# component must not mask real test failures, so its absence is
# reported but not fatal. Everything else is strict.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0

step() { printf '\n==> %s\n' "$*"; }

# Reports the verdict and exits: 1 when any step failed, else 0.
finish() {
    echo
    if [ "$fail" -ne 0 ]; then
        echo "verify: FAILED"
        exit 1
    fi
    echo "verify: OK"
    exit 0
}

# 10-tick serve smoke under one canned fault plan. Fails on a nonzero
# exit (an unhandled panic aborts the process), on missing fault-plane
# keys in the metrics JSON, and on any extra per-plan grep assertions
# passed as "must-match regex" / "!forbidden regex" arguments.
fault_case() {
    plan="$1"; shift
    journal_flags=""
    case "$plan" in persistent-read) journal_flags="--journal 0";; esac
    out="$(mktemp /tmp/pdr-fault.XXXXXX.json)"
    # shellcheck disable=SC2086
    if ! target/release/pdrcli serve --objects 2000 --extent 500 --ticks 10 \
            --l 30 --count 12 --seed 11 --buffer-pages 8 $journal_flags \
            --fault-plan "plans/$plan.plan" --metrics "$out" >/dev/null 2>&1; then
        echo "FAIL: fault plan $plan: serve exited nonzero (panic?)"
        fail=1
        rm -f "$out"
        return
    fi
    for key in '"degraded_queries":' '"recoveries":' '"retries":' \
               '"failed_queries":' '"deadline_misses":' '"faults":' \
               '"recovery_us":' '"faults_injected":'; do
        if ! grep -qF "$key" "$out"; then
            echo "FAIL: fault plan $plan: metrics JSON lacks $key"
            fail=1
        fi
    done
    for assertion in "$@"; do
        case "$assertion" in
            '!'*)
                if grep -qE "${assertion#!}" "$out"; then
                    echo "FAIL: fault plan $plan: metrics match forbidden ${assertion#!}"
                    fail=1
                fi
                ;;
            *)
                if ! grep -qE "$assertion" "$out"; then
                    echo "FAIL: fault plan $plan: metrics lack $assertion"
                    fail=1
                fi
                ;;
        esac
    done
    rm -f "$out"
}

fault_matrix() {
    step "fault-injection serve matrix (plans/*.plan, 10 ticks each)"
    if ! cargo build --release -p pdr-cli; then
        echo "FAIL: pdr-cli release build"
        fail=1
        return
    fi
    # Clean plan: nothing injected, nothing degraded.
    fault_case clean '"faults_injected":0' '!"degraded_queries":[1-9]'
    # Transient reads: retried to exact answers, never degraded.
    fault_case transient-reads '!"degraded_queries":[1-9]'
    # Torn write: detected via CRC and recovered from the (1x1) plane
    # shard's checkpoint + WAL segment tail.
    fault_case torn-write '"recoveries":[1-9]' '!"degraded_queries":[1-9]'
    # Persistent device failure without a journal: degraded, not dead.
    fault_case persistent-read '"degraded_queries":[1-9]'
}

# Sharded serve plane: a clean 2x2 run must emit the per-shard metrics
# block (one entry per shard, private WAL segments, no degradation),
# a persistent fault — scoped to shard 0 by the router — must stay
# confined to that shard while the plane keeps serving every query, and
# a torn write on shard 0 must be recovered by that shard alone.
# (A plan armed before the serve loop fires on the ingest path, where
# the crashed shard restores from its own segment — or, under
# --journal 0, the engine degrades — before any query runs, so the
# query-path "exactly one shard degrades" invariant is pinned by the
# crates/core/tests/shard_faults.rs integration test instead.)
sharded_smoke() {
    step "sharded serve smoke (--shards 2x2, 10 ticks)"
    if ! cargo build --release -p pdr-cli; then
        echo "FAIL: pdr-cli release build"
        fail=1
        return
    fi
    out="$(mktemp /tmp/pdr-sharded.XXXXXX.json)"
    if ! target/release/pdrcli serve --objects 800 --extent 400 --ticks 10 \
            --l 20 --count 8 --seed 11 --shards 2x2 --metrics "$out" >/dev/null; then
        echo "FAIL: sharded serve exited nonzero"
        fail=1
    else
        for key in '"shards":[' '"shard":0' '"shard":3' \
                   '"segment":"journal.seg0003.wal"' '"tile":[' \
                   '"wal_records":' '"updates_applied":'; do
            if ! grep -qF "$key" "$out"; then
                echo "FAIL: sharded metrics JSON lacks $key"
                fail=1
            fi
        done
        if grep -qF '"degraded":true' "$out"; then
            echo "FAIL: clean sharded run reports a degraded shard"
            fail=1
        fi
    fi
    rm -f "$out"

    step "sharded fault smoke (persistent fault confined to one shard)"
    out="$(mktemp /tmp/pdr-sharded-fault.XXXXXX.json)"
    if ! target/release/pdrcli serve --objects 2000 --extent 500 --ticks 10 \
            --l 30 --count 12 --seed 11 --buffer-pages 8 --journal 0 \
            --shards 2x2 --fault-plan plans/persistent-read.plan \
            --metrics "$out" >/dev/null 2>&1; then
        echo "FAIL: sharded fault serve exited nonzero (panic?)"
        fail=1
    else
        # Exactly one shard (fr's shard 0) absorbs the injected fault;
        # every other per-shard "faults" counter stays 0.
        faulted="$(grep -oE '"faults":[0-9]+' "$out" | grep -cv '"faults":0')"
        if [ "$faulted" != "1" ]; then
            echo "FAIL: expected the fault confined to 1 shard, got $faulted"
            fail=1
        fi
        # The plane degrades gracefully and never drops a query.
        if ! grep -qE '"degraded_queries":[1-9]' "$out"; then
            echo "FAIL: persistent sharded fault did not degrade serving"
            fail=1
        fi
        if grep -qE '"failed_queries":[1-9]' "$out"; then
            echo "FAIL: sharded fault run dropped queries"
            fail=1
        fi
    fi
    rm -f "$out"

    step "sharded torn-write smoke (shard 0 recovers from its own segment)"
    out="$(mktemp /tmp/pdr-sharded-torn.XXXXXX.json)"
    if ! target/release/pdrcli serve --objects 2000 --extent 500 --ticks 10 \
            --l 30 --count 12 --seed 11 --buffer-pages 8 \
            --shards 2x2 --fault-plan plans/torn-write.plan \
            --metrics "$out" >/dev/null 2>&1; then
        echo "FAIL: sharded torn-write serve exited nonzero (panic?)"
        fail=1
    else
        if ! grep -qE '"recoveries":[1-9]' "$out"; then
            echo "FAIL: sharded torn write was never recovered"
            fail=1
        fi
        if grep -qE '"degraded_queries":[1-9]' "$out"; then
            echo "FAIL: sharded torn write degraded serving"
            fail=1
        fi
        # The recovered shard keeps its banked fault counters; no other
        # shard saw a fault.
        faulted="$(grep -oE '"faults":[0-9]+' "$out" | grep -cv '"faults":0')"
        if [ "$faulted" != "1" ]; then
            echo "FAIL: expected the torn write on 1 shard, got $faulted"
            fail=1
        fi
    fi
    rm -f "$out"
}

# TCP front-end smoke: bind an ephemeral port, drive 10 ticks of
# oracle-checked queries through a scripted client, then shut down via
# the protocol op. Fails on a non-exact answer (the client asserts),
# missing metrics keys, failed queries, a dirty exit, any leaked
# connection/executor worker thread in the closing summary, or a
# round-trip p50 at or above the 40 ms delayed-ACK floor (a frame split
# across writes, or a socket without TCP_NODELAY, pays it each trip).
serve_tcp_smoke() {
    step "TCP serve smoke (serve --listen + scripted client, 10 ticks)"
    if ! cargo build --release -p pdr-cli; then
        echo "FAIL: pdr-cli release build"
        fail=1
        return
    fi
    portfile="$(mktemp /tmp/pdr-port.XXXXXX)"
    serverlog="$(mktemp /tmp/pdr-tcp-server.XXXXXX.log)"
    clientlog="$(mktemp /tmp/pdr-tcp-client.XXXXXX.log)"
    rm -f "$portfile"
    # --deadline-ms 5000: the 250 ms default budget assumes a multi-core
    # host; the smoke pins engine correctness and clean shutdown, and
    # wire latency only through the round-trip gate below.
    # --ticks is unused in listen mode (clients drive ticks over the
    # wire) but still validated, so pass the minimum.
    target/release/pdrcli serve --objects 800 --extent 400 --ticks 1 \
        --l 20 --count 8 --seed 11 \
        --listen 127.0.0.1:0 --port-file "$portfile" --deadline-ms 5000 \
        >"$serverlog" 2>&1 &
    server=$!
    for _ in $(seq 1 150); do
        [ -s "$portfile" ] && break
        sleep 0.1
    done
    if [ ! -s "$portfile" ]; then
        echo "FAIL: TCP serve never wrote its port file"
        fail=1
        kill "$server" 2>/dev/null
        wait "$server" 2>/dev/null
        rm -f "$portfile" "$serverlog" "$clientlog"
        return
    fi
    if ! target/release/pdrcli client --connect "$(cat "$portfile")" \
            --ticks 10 --queries 4 --l 20 --count 8 >"$clientlog" 2>&1; then
        echo "FAIL: TCP client exited nonzero"
        sed 's/^/  client: /' "$clientlog"
        fail=1
    else
        if ! grep -qF 'all exact' "$clientlog"; then
            echo "FAIL: TCP client did not confirm exact answers"
            fail=1
        fi
        # Non-check round trips are mostly ticks, ~20 ms of server work
        # on a 2-core host; a p50 at the delayed-ACK floor means the
        # framing regressed.
        p50="$(sed -n 's/^# round trips: n=[0-9]*, p50 \([0-9.]*\) ms.*/\1/p' "$clientlog")"
        if [ -z "$p50" ]; then
            echo "FAIL: TCP client printed no round-trip line"
            fail=1
        elif ! awk -v p="$p50" 'BEGIN { exit !(p < 40) }'; then
            echo "FAIL: TCP round-trip p50 $p50 ms is at the 40 ms delayed-ACK floor"
            fail=1
        else
            grep -F '# round trips:' "$clientlog"
        fi
        # The client relays the server's metrics op verbatim; the dump
        # must carry the executor and admission-queue telemetry.
        for key in '"pool_workers":' '"queue_depth":' '"served":' \
                   '"rejected_admissions":' '"deadline_misses":' \
                   '"exec":' '"steals":' '"parked_us":'; do
            if ! grep -qF "$key" "$clientlog"; then
                echo "FAIL: TCP metrics relay lacks $key"
                fail=1
            fi
        done
    fi
    # The client's shutdown op must bring the server down by itself.
    server_alive=1
    for _ in $(seq 1 150); do
        if ! kill -0 "$server" 2>/dev/null; then
            server_alive=0
            break
        fi
        sleep 0.1
    done
    if [ "$server_alive" -eq 1 ]; then
        echo "FAIL: TCP server still running after protocol shutdown"
        kill -9 "$server" 2>/dev/null
        fail=1
    fi
    wait "$server" 2>/dev/null
    rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: TCP server exited nonzero ($rc)"
        sed 's/^/  server: /' "$serverlog"
        fail=1
    fi
    for key in '"shutdown":true' '"leaked_workers":0' '"failed_queries":0'; do
        if ! grep -qF "$key" "$serverlog"; then
            echo "FAIL: TCP shutdown summary lacks $key"
            fail=1
        fi
    done
    rm -f "$portfile" "$serverlog" "$clientlog"
}

# Standing-subscription smoke: a 10-tick TCP serve with 8 standing
# subscriptions registered over the wire, once on an unsharded engine
# and once on a 2x2 sharded plane (whose maintenance assembles each
# subscription from its owning shards). The client reconstructs each
# subscription's answer purely by replaying polled deltas and checks it
# bit-identically against a from-scratch query (clipped client-side)
# after every tick; the closing summary must report zero leaked
# workers. Fails on a lost/degraded delta stream, any divergence, a
# dirty exit, or a leaked thread.
sub_smoke() {
    if ! cargo build --release -p pdr-cli; then
        echo "FAIL: pdr-cli release build"
        fail=1
        return
    fi
    sub_case
    sub_case --shards 2x2
}

# One subscription smoke run; extra arguments go to `pdrcli serve`.
sub_case() {
    step "subscription smoke (serve --listen ${*:+$* }+ client --subs 8, 10 ticks)"
    portfile="$(mktemp /tmp/pdr-sub-port.XXXXXX)"
    serverlog="$(mktemp /tmp/pdr-sub-server.XXXXXX.log)"
    clientlog="$(mktemp /tmp/pdr-sub-client.XXXXXX.log)"
    rm -f "$portfile"
    target/release/pdrcli serve --objects 600 --extent 400 --ticks 1 \
        --l 25 --count 8 --seed 11 "$@" \
        --listen 127.0.0.1:0 --port-file "$portfile" --deadline-ms 5000 \
        >"$serverlog" 2>&1 &
    server=$!
    for _ in $(seq 1 150); do
        [ -s "$portfile" ] && break
        sleep 0.1
    done
    if [ ! -s "$portfile" ]; then
        echo "FAIL: subscription serve never wrote its port file"
        fail=1
        kill "$server" 2>/dev/null
        wait "$server" 2>/dev/null
        rm -f "$portfile" "$serverlog" "$clientlog"
        return
    fi
    if ! target/release/pdrcli client --connect "$(cat "$portfile")" \
            --ticks 10 --queries 2 --subs 8 --extent 400 --l 25 --count 8 \
            >"$clientlog" 2>&1; then
        echo "FAIL: subscription client exited nonzero"
        sed 's/^/  client: /' "$clientlog"
        fail=1
    else
        if ! grep -qF '"subs_exact":true' "$clientlog"; then
            echo "FAIL: replayed deltas diverged from from-scratch answers"
            sed 's/^/  client: /' "$clientlog"
            fail=1
        fi
        if ! grep -qF 'all exact' "$clientlog"; then
            echo "FAIL: subscription client did not confirm exact queries"
            fail=1
        fi
        if ! grep -qE '"wire_subs":[0-9]' "$clientlog"; then
            echo "FAIL: metrics relay lacks the wire_subs gauge"
            fail=1
        fi
    fi
    server_alive=1
    for _ in $(seq 1 150); do
        if ! kill -0 "$server" 2>/dev/null; then
            server_alive=0
            break
        fi
        sleep 0.1
    done
    if [ "$server_alive" -eq 1 ]; then
        echo "FAIL: subscription server still running after shutdown"
        kill -9 "$server" 2>/dev/null
        fail=1
    fi
    wait "$server" 2>/dev/null
    rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: subscription server exited nonzero ($rc)"
        sed 's/^/  server: /' "$serverlog"
        fail=1
    fi
    for key in '"shutdown":true' '"leaked_workers":0' '"failed_queries":0'; do
        if ! grep -qF "$key" "$serverlog"; then
            echo "FAIL: subscription shutdown summary lacks $key"
            fail=1
        fi
    done
    rm -f "$portfile" "$serverlog" "$clientlog"
}

# Log-shipping replica smoke: a 2x2 sharded primary plus a read
# replica front-end (`serve --replica-of`), both on ephemeral ports.
# The client drives 10 ticks against the primary and, after every
# tick, issues `sync` on the replica and cross-checks timestamps and
# full region rectangles of identical probes on both planes — any
# divergence aborts the client. Fails on a divergent answer, a missing
# replica metrics block, a dirty exit, or a leaked thread on either
# server.
replica_smoke() {
    step "replica smoke (primary --shards 2x2 + serve --replica-of, 10 ticks)"
    if ! cargo build --release -p pdr-cli; then
        echo "FAIL: pdr-cli release build"
        fail=1
        return
    fi
    pport="$(mktemp /tmp/pdr-primary-port.XXXXXX)"
    rport="$(mktemp /tmp/pdr-replica-port.XXXXXX)"
    plog="$(mktemp /tmp/pdr-primary.XXXXXX.log)"
    rlog="$(mktemp /tmp/pdr-replica.XXXXXX.log)"
    clientlog="$(mktemp /tmp/pdr-replica-client.XXXXXX.log)"
    rm -f "$pport" "$rport"
    target/release/pdrcli serve --objects 800 --extent 400 --ticks 1 \
        --l 20 --count 8 --seed 11 --shards 2x2 \
        --listen 127.0.0.1:0 --port-file "$pport" --deadline-ms 5000 \
        >"$plog" 2>&1 &
    primary=$!
    for _ in $(seq 1 150); do
        [ -s "$pport" ] && break
        sleep 0.1
    done
    if [ ! -s "$pport" ]; then
        echo "FAIL: replica smoke: primary never wrote its port file"
        fail=1
        kill "$primary" 2>/dev/null
        wait "$primary" 2>/dev/null
        rm -f "$pport" "$rport" "$plog" "$rlog" "$clientlog"
        return
    fi
    target/release/pdrcli serve --objects 800 --extent 400 --ticks 1 \
        --l 20 --count 8 --seed 11 --shards 2x2 \
        --replica-of "$(cat "$pport")" \
        --listen 127.0.0.1:0 --port-file "$rport" --deadline-ms 5000 \
        >"$rlog" 2>&1 &
    replica=$!
    for _ in $(seq 1 150); do
        [ -s "$rport" ] && break
        sleep 0.1
    done
    if [ ! -s "$rport" ]; then
        echo "FAIL: replica smoke: replica never wrote its port file"
        sed 's/^/  replica: /' "$rlog"
        fail=1
        kill "$primary" "$replica" 2>/dev/null
        wait "$primary" "$replica" 2>/dev/null
        rm -f "$pport" "$rport" "$plog" "$rlog" "$clientlog"
        return
    fi
    if ! target/release/pdrcli client --connect "$(cat "$pport")" \
            --replica "$(cat "$rport")" \
            --ticks 10 --queries 4 --l 20 --count 8 >"$clientlog" 2>&1; then
        echo "FAIL: replica client exited nonzero"
        sed 's/^/  client: /' "$clientlog"
        fail=1
    else
        if ! grep -qF '"replica_exact":true' "$clientlog"; then
            echo "FAIL: client did not confirm bit-identical replica answers"
            sed 's/^/  client: /' "$clientlog"
            fail=1
        fi
        # The relayed replica metrics must show a caught-up replica
        # that bootstrapped exactly once.
        for key in '"replica_lag":0' '"bootstraps":1'; do
            if ! grep -qF "$key" "$clientlog"; then
                echo "FAIL: replica metrics relay lacks $key"
                fail=1
            fi
        done
    fi
    # The client shuts down the replica first, then the primary.
    for pair in "replica:$replica:$rlog" "primary:$primary:$plog"; do
        name="${pair%%:*}"; rest="${pair#*:}"
        pid="${rest%%:*}"; log="${rest#*:}"
        alive=1
        for _ in $(seq 1 150); do
            if ! kill -0 "$pid" 2>/dev/null; then
                alive=0
                break
            fi
            sleep 0.1
        done
        if [ "$alive" -eq 1 ]; then
            echo "FAIL: $name still running after protocol shutdown"
            kill -9 "$pid" 2>/dev/null
            fail=1
        fi
        wait "$pid" 2>/dev/null
        rc=$?
        if [ "$rc" -ne 0 ]; then
            echo "FAIL: $name exited nonzero ($rc)"
            sed "s/^/  $name: /" "$log"
            fail=1
        fi
        for key in '"shutdown":true' '"leaked_workers":0'; do
            if ! grep -qF "$key" "$log"; then
                echo "FAIL: $name shutdown summary lacks $key"
                fail=1
            fi
        done
    done
    rm -f "$pport" "$rport" "$plog" "$rlog" "$clientlog"
}

# Chaos smoke: primary + replica under the lossy-net fault plan. Phase
# 1 drives 5 ticks with per-tick replica syncs and bit-identical
# cross-checks, leaving both servers open. The primary is then killed
# with SIGKILL (no shutdown protocol, no flush) and phase 2 reconnects
# with `--failover`: the client walks to the replica, promotes it, and
# keeps getting exact answers from the new primary — every update
# acknowledged before the crash survives, under duplicated and delayed
# frames the whole time. Fails on a divergent or inexact answer, a
# client that cannot fail over, missing netfault counters, a dirty
# replica exit, or a leaked thread on the survivor.
chaos_smoke() {
    step "chaos smoke (lossy net, SIGKILL primary, failover to promoted replica)"
    if ! cargo build --release -p pdr-cli; then
        echo "FAIL: pdr-cli release build"
        fail=1
        return
    fi
    pport="$(mktemp /tmp/pdr-chaos-pport.XXXXXX)"
    rport="$(mktemp /tmp/pdr-chaos-rport.XXXXXX)"
    plog="$(mktemp /tmp/pdr-chaos-primary.XXXXXX.log)"
    rlog="$(mktemp /tmp/pdr-chaos-replica.XXXXXX.log)"
    c1log="$(mktemp /tmp/pdr-chaos-client1.XXXXXX.log)"
    c2log="$(mktemp /tmp/pdr-chaos-client2.XXXXXX.log)"
    rm -f "$pport" "$rport"
    target/release/pdrcli serve --objects 800 --extent 400 --ticks 1 \
        --l 20 --count 8 --seed 11 --shards 2x2 \
        --net-fault-plan plans/lossy-net.plan \
        --listen 127.0.0.1:0 --port-file "$pport" --deadline-ms 5000 \
        >"$plog" 2>&1 &
    primary=$!
    for _ in $(seq 1 150); do
        [ -s "$pport" ] && break
        sleep 0.1
    done
    if [ ! -s "$pport" ]; then
        echo "FAIL: chaos smoke: primary never wrote its port file"
        fail=1
        kill -9 "$primary" 2>/dev/null
        wait "$primary" 2>/dev/null
        rm -f "$pport" "$rport" "$plog" "$rlog" "$c1log" "$c2log"
        return
    fi
    target/release/pdrcli serve --objects 800 --extent 400 --ticks 1 \
        --l 20 --count 8 --seed 11 --shards 2x2 \
        --replica-of "$(cat "$pport")" \
        --listen 127.0.0.1:0 --port-file "$rport" --deadline-ms 5000 \
        >"$rlog" 2>&1 &
    replica=$!
    for _ in $(seq 1 150); do
        [ -s "$rport" ] && break
        sleep 0.1
    done
    if [ ! -s "$rport" ]; then
        echo "FAIL: chaos smoke: replica never wrote its port file"
        sed 's/^/  replica: /' "$rlog"
        fail=1
        kill -9 "$primary" "$replica" 2>/dev/null
        wait "$primary" "$replica" 2>/dev/null
        rm -f "$pport" "$rport" "$plog" "$rlog" "$c1log" "$c2log"
        return
    fi
    # Phase 1: ticks + per-tick replica sync under the lossy plan;
    # --keep-open leaves both servers running for the crash.
    if ! target/release/pdrcli client --connect "$(cat "$pport")" \
            --replica "$(cat "$rport")" --keep-open \
            --ticks 5 --queries 4 --l 20 --count 8 >"$c1log" 2>&1; then
        echo "FAIL: chaos phase-1 client exited nonzero"
        sed 's/^/  client: /' "$c1log"
        fail=1
    else
        if ! grep -qF '"replica_exact":true' "$c1log"; then
            echo "FAIL: chaos phase 1 lost bit-identity under the lossy net"
            fail=1
        fi
        if ! grep -qF 'all exact' "$c1log"; then
            echo "FAIL: chaos phase-1 client did not confirm exact answers"
            fail=1
        fi
        # The primary's metrics relay must show the injection plane
        # actually firing (delays and duplicates under lossy-net.plan).
        if ! grep -qE '"netfaults":\{"frames":[1-9]' "$c1log"; then
            echo "FAIL: chaos phase 1 metrics show no injected frames"
            fail=1
        fi
        if ! grep -qE '"duplicates":[1-9]' "$c1log"; then
            echo "FAIL: chaos phase 1 injected no duplicate frames"
            fail=1
        fi
        # lossy-net.plan also drops whole response frames permanently
        # (every=11): the client's bounded read-timeout-and-retry path
        # must actually have been exercised.
        if ! grep -qE '"drops":[1-9]' "$c1log"; then
            echo "FAIL: chaos phase 1 dropped no response frames"
            fail=1
        fi
    fi
    # Crash: no shutdown op, no flush — the primary just dies.
    kill -9 "$primary" 2>/dev/null
    wait "$primary" 2>/dev/null
    # Phase 2: the dead primary is still first in the target list; the
    # client must walk to the replica, promote it, and keep serving
    # exact answers (every acked pre-crash update survives).
    if ! target/release/pdrcli client --connect "$(cat "$pport")" \
            --failover "$(cat "$rport")" \
            --ticks 5 --queries 4 --l 20 --count 8 >"$c2log" 2>&1; then
        echo "FAIL: chaos phase-2 client exited nonzero"
        sed 's/^/  client: /' "$c2log"
        fail=1
    else
        if ! grep -qF 'all exact' "$c2log"; then
            echo "FAIL: promoted replica served inexact answers"
            sed 's/^/  client: /' "$c2log"
            fail=1
        fi
        if ! grep -qE '"failovers":[1-9]' "$c2log"; then
            echo "FAIL: chaos phase-2 client reports no failover"
            fail=1
        fi
        # The survivor's metrics must show the promoted role and epoch.
        if ! grep -qE '"repl_epoch":[2-9]' "$c2log"; then
            echo "FAIL: promoted replica metrics lack the bumped epoch"
            fail=1
        fi
    fi
    # Phase 2 shut the promoted replica down via the protocol op.
    alive=1
    for _ in $(seq 1 150); do
        if ! kill -0 "$replica" 2>/dev/null; then
            alive=0
            break
        fi
        sleep 0.1
    done
    if [ "$alive" -eq 1 ]; then
        echo "FAIL: promoted replica still running after protocol shutdown"
        kill -9 "$replica" 2>/dev/null
        fail=1
    fi
    wait "$replica" 2>/dev/null
    rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: promoted replica exited nonzero ($rc)"
        sed 's/^/  replica: /' "$rlog"
        fail=1
    fi
    for key in '"shutdown":true' '"leaked_workers":0'; do
        if ! grep -qF "$key" "$rlog"; then
            echo "FAIL: promoted replica shutdown summary lacks $key"
            fail=1
        fi
    done
    rm -f "$pport" "$rport" "$plog" "$rlog" "$c1log" "$c2log"
}

# Adaptive-sharding smoke: a 1x1 adaptive primary whose policy splits
# on its own (800 objects > the 200 threshold), plus a forced
# `rebalance` split and merge over the wire — answers must stay exact
# through every cutover, the partition metrics must show both
# topology-change directions, and shutdown must leak nothing.
adaptive_smoke() {
    step "adaptive smoke (serve --adaptive + client --rebalance, 10 ticks)"
    if ! cargo build --release -p pdr-cli; then
        echo "FAIL: pdr-cli release build"
        fail=1
        return
    fi
    portfile="$(mktemp /tmp/pdr-adaptive-port.XXXXXX)"
    serverlog="$(mktemp /tmp/pdr-adaptive-server.XXXXXX.log)"
    clientlog="$(mktemp /tmp/pdr-adaptive-client.XXXXXX.log)"
    rm -f "$portfile"
    target/release/pdrcli serve --objects 800 --extent 400 --ticks 1 \
        --l 20 --count 8 --seed 11 --shards 1x1 --adaptive \
        --split-threshold 200 --merge-threshold 40 \
        --listen 127.0.0.1:0 --port-file "$portfile" --deadline-ms 5000 \
        >"$serverlog" 2>&1 &
    server=$!
    for _ in $(seq 1 150); do
        [ -s "$portfile" ] && break
        sleep 0.1
    done
    if [ ! -s "$portfile" ]; then
        echo "FAIL: adaptive smoke: server never wrote its port file"
        fail=1
        kill -9 "$server" 2>/dev/null
        wait "$server" 2>/dev/null
        rm -f "$portfile" "$serverlog" "$clientlog"
        return
    fi
    if ! target/release/pdrcli client --connect "$(cat "$portfile")" \
            --rebalance --ticks 10 --queries 4 --l 20 --count 8 \
            >"$clientlog" 2>&1; then
        echo "FAIL: adaptive client exited nonzero"
        sed 's/^/  client: /' "$clientlog"
        fail=1
    else
        if ! grep -qF 'all exact' "$clientlog"; then
            echo "FAIL: adaptive client did not confirm exact answers"
            fail=1
        fi
        for key in '"rebalance":"split"' '"rebalance":"merge"'; do
            if ! grep -qF "$key" "$clientlog"; then
                echo "FAIL: adaptive client never drove $key"
                fail=1
            fi
        done
        # The metrics relay must carry the partition tree with both
        # topology-change directions counted.
        if ! grep -qF '"partition":{"epoch":' "$clientlog"; then
            echo "FAIL: adaptive metrics lack the partition block"
            fail=1
        fi
        if ! grep -qE '"splits":[1-9]' "$clientlog"; then
            echo "FAIL: adaptive metrics show no splits"
            fail=1
        fi
        if ! grep -qE '"merges":[1-9]' "$clientlog"; then
            echo "FAIL: adaptive metrics show no merges"
            fail=1
        fi
        if ! grep -qF '"adaptive":true' "$clientlog"; then
            echo "FAIL: adaptive metrics do not mark the policy"
            fail=1
        fi
    fi
    server_alive=1
    for _ in $(seq 1 150); do
        if ! kill -0 "$server" 2>/dev/null; then
            server_alive=0
            break
        fi
        sleep 0.1
    done
    if [ "$server_alive" -eq 1 ]; then
        echo "FAIL: adaptive server still running after protocol shutdown"
        kill -9 "$server" 2>/dev/null
        fail=1
    fi
    wait "$server" 2>/dev/null
    rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: adaptive server exited nonzero ($rc)"
        sed 's/^/  server: /' "$serverlog"
        fail=1
    fi
    for key in '"shutdown":true' '"leaked_workers":0' '"failed_queries":0'; do
        if ! grep -qF "$key" "$serverlog"; then
            echo "FAIL: adaptive shutdown summary lacks $key"
            fail=1
        fi
    done
    rm -f "$portfile" "$serverlog" "$clientlog"
}

fast=0
case "${1:-}" in
    --fault-matrix) fault_matrix; finish ;;
    --sharded-smoke) sharded_smoke; finish ;;
    --serve-tcp-smoke) serve_tcp_smoke; finish ;;
    --sub-smoke) sub_smoke; finish ;;
    --replica-smoke) replica_smoke; finish ;;
    --chaos-smoke) chaos_smoke; finish ;;
    --adaptive-smoke) adaptive_smoke; finish ;;
    --fast) fast=1 ;;
esac

step "cargo fmt --check"
if ! cargo fmt --all -- --check; then
    echo "FAIL: formatting (run 'cargo fmt --all')"
    fail=1
fi

step "cargo clippy (best-effort)"
if cargo clippy --version >/dev/null 2>&1; then
    if ! cargo clippy --workspace --all-targets -- -D warnings; then
        echo "FAIL: clippy"
        fail=1
    fi
else
    echo "clippy unavailable in this toolchain; skipping"
fi

if [ "$fast" -eq 0 ]; then
    step "cargo build --release (tier-1)"
    if ! cargo build --release; then
        echo "FAIL: release build"
        fail=1
    fi

    step "pdrcli serve --metrics smoke (10 ticks)"
    # The root package build above does not cover pdr-cli (the root
    # manifest is the facade package); build the binary explicitly.
    if ! cargo build --release -p pdr-cli; then
        echo "FAIL: pdr-cli release build"
        fail=1
    fi
    metrics_json="$(mktemp /tmp/pdr-metrics.XXXXXX.json)"
    if ! target/release/pdrcli serve --objects 800 --extent 400 --ticks 10 \
            --l 20 --count 8 --seed 11 --metrics "$metrics_json" >/dev/null; then
        echo "FAIL: pdrcli serve --metrics exited nonzero"
        fail=1
    else
        # The dump must carry the full observability schema: driver tick
        # timings, per-engine latency quantiles, FR stage timings, PA
        # branch-and-bound counters, and the accuracy poisoning guard.
        for key in '"ticks":10' '"tick_ingest_us":' '"tick_query_us":' \
                   '"engines":[' '"latency_us":' '"p99_us":' '"stages":' \
                   '"classify":' '"bnb_expanded":' '"unbounded_r_fp":' \
                   '"queries_served":' '"physical_ios":'; do
            if ! grep -qF "$key" "$metrics_json"; then
                echo "FAIL: metrics JSON lacks $key"
                fail=1
            fi
        done
    fi
    rm -f "$metrics_json"

    sharded_smoke
    fault_matrix
    serve_tcp_smoke
    sub_smoke
    replica_smoke
    chaos_smoke
    adaptive_smoke
fi

step "cargo test -q (tier-1)"
if ! cargo test -q; then
    echo "FAIL: tier-1 tests"
    fail=1
fi

step "cargo test -q --workspace"
if ! cargo test -q --workspace; then
    echo "FAIL: workspace tests"
    fail=1
fi

finish
