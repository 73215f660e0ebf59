#!/usr/bin/env bash
# Repo health gate: formatting, lints, tests. Run from the repo root.
# CI runs exactly this script (.github/workflows/ci.yml); keep it fast
# and fully offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> ddpa profile JSONL smoke test"
# Every sample must profile cleanly and emit strict one-object-per-line
# JSONL (validated by the jsonl-check hidden subcommand of the CLI, which
# reuses the crates/obs validator).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for sample in samples/*; do
    out="$tmp/$(basename "$sample").jsonl"
    cargo run -q -p ddpa-cli -- profile "$sample" --json "$out" > /dev/null
    cargo run -q -p ddpa-cli -- jsonl-check "$out"
done

echo "==> ring-program smoke test"
# The differential suite (fixed seeds) proves the engine matches the wave
# solver on programs with forced copy cycles; the profile run drives
# samples/cycles.cons, a 40-edge copy ring, end to end and checks that
# its metrics export is well-formed.
cargo test -q -p ddpa-demand --test cycles_differential
cyc="$tmp/cycles-metrics.jsonl"
cargo run -q -p ddpa-cli -- profile samples/cycles.cons --json "$cyc" > /dev/null
cargo run -q -p ddpa-cli -- jsonl-check "$cyc"

echo "==> shared-memo smoke test"
# The differential suite (fixed seeds) proves the shared cross-worker
# memo table is transparent: answers bit-identical to private-memo
# engines and the naive oracle, including across add-constraints
# generations. The serve run below proves cross-worker reuse end-to-end.
cargo test -q -p ddpa-demand --test differential shared_memo

echo "==> ddpa-serve smoke test"
# Start a server on an ephemeral port, run a batch through the client,
# shut it down cleanly, and validate the exported metrics JSONL.
portfile="$tmp/serve-port"
srv_metrics="$tmp/serve-metrics.jsonl"
access_log="$tmp/serve-access.jsonl"
cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile" --metrics-out "$srv_metrics" \
    --access-log "$access_log" --slow-ms 0 \
    > "$tmp/serve.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile" ] && break
    sleep 0.1
done
[ -s "$portfile" ] || { echo "server never wrote $portfile" >&2; exit 1; }
addr="$(cat "$portfile")"
client() { cargo run -q -p ddpa-cli -- client --addr "$addr" "$@" > /dev/null; }
client ping
client open smoke samples/list.mc
client query smoke main::got data        # a batch over the wire
client query smoke main::got data        # warm repeat: served from the memo table
client query smoke main::got data --parallel  # workers reuse the session's shared memo
client query smoke main::got --trace     # traced request: response carries the delta report
client slow                              # slow-query ring over the wire
client stats
client shutdown
wait "$srv_pid"
cargo run -q -p ddpa-cli -- jsonl-check "$srv_metrics"
grep -q 'server.cache_hits' "$srv_metrics" \
    || { echo "metrics missing server.cache_hits" >&2; exit 1; }
grep -q '"name":"demand.share.hits","value":[1-9]' "$srv_metrics" \
    || { echo "metrics missing a nonzero demand.share.hits" >&2; exit 1; }
grep -Eq '"kind":"hist","name":"server\.latency\.request_us".*"p99":[1-9]' "$srv_metrics" \
    || { echo "metrics missing a nonzero request-latency p99 histogram" >&2; exit 1; }
# The access log is itself strict metrics JSONL: one access line per
# request, plus slow lines (threshold 0 ⇒ everything is slow).
cargo run -q -p ddpa-cli -- jsonl-check "$access_log"
grep -q '"kind":"access"' "$access_log" \
    || { echo "access log missing access lines" >&2; exit 1; }
grep -q '"kind":"slow"' "$access_log" \
    || { echo "access log missing slow lines (slow-ms 0)" >&2; exit 1; }
grep -q '"trace":"r' "$access_log" \
    || { echo "access log missing request trace ids" >&2; exit 1; }

echo "==> flight recorder / introspection smoke test"
# Against a live server with the recorder on (the default): a traced
# query populates the ring, the flight export and the scrape both pass
# jsonl-check, the scrape shows nonzero flight events, and the live
# views (top, graph --dot) render.
portfile3="$tmp/serve-flight-port"
flight_out="$tmp/flight.jsonl"
scrape_out="$tmp/scrape.jsonl"
cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile3" \
    > "$tmp/serve-flight.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile3" ] && break
    sleep 0.1
done
[ -s "$portfile3" ] || { echo "server never wrote $portfile3" >&2; exit 1; }
addr="$(cat "$portfile3")"
client open smoke samples/list.mc
client query smoke main::got --trace
cargo run -q -p ddpa-cli -- flight smoke --addr "$addr" --out "$flight_out"
cargo run -q -p ddpa-cli -- jsonl-check "$flight_out"
grep -q '"kind":"flight"' "$flight_out" \
    || { echo "flight export has no flight events" >&2; exit 1; }
cargo run -q -p ddpa-cli -- scrape --addr "$addr" --out "$scrape_out"
cargo run -q -p ddpa-cli -- jsonl-check "$scrape_out"
grep -Eq '"name":"session\.smoke\.flight_events","value":[1-9]' "$scrape_out" \
    || { echo "scrape missing a nonzero session.smoke.flight_events" >&2; exit 1; }
# Capture before grepping: `grep -q` exits on first match, and under
# pipefail the writer's resulting EPIPE would fail the pipeline.
cargo run -q -p ddpa-cli -- top smoke --addr "$addr" --iters 1 > "$tmp/top.out"
grep -q 'critical path: work' "$tmp/top.out" \
    || { echo "ddpa top did not render the critical path" >&2; exit 1; }
cargo run -q -p ddpa-cli -- graph smoke --addr "$addr" --dot > "$tmp/graph.dot"
head -1 "$tmp/graph.dot" | grep -q 'digraph goals' \
    || { echo "ddpa graph --dot did not render DOT" >&2; exit 1; }
client shutdown
wait "$srv_pid"
# A local traced query with the recorder on (the default) exports a
# nonzero demand.flight.events counter.
flight_metrics="$tmp/flight-local-metrics.jsonl"
cargo run -q -p ddpa-cli -- query samples/list.mc main::got \
    --metrics-out "$flight_metrics" > /dev/null
cargo run -q -p ddpa-cli -- jsonl-check "$flight_metrics"
grep -q '"name":"demand.flight.events","value":[1-9]' "$flight_metrics" \
    || { echo "metrics missing a nonzero demand.flight.events" >&2; exit 1; }

echo "==> snapshot / warm-start smoke test"
# First server life: open a session, warm the memo table, snapshot it to
# disk (both on request and via the periodic background snapshotter).
# Second life: --restore warm-starts the session from the same directory,
# so the very first query must be served from installed fixpoints
# (nonzero demand.share.hits with no prior query in this life).
snapdir="$tmp/snaps"
portfile2="$tmp/serve2-port"
snap_metrics="$tmp/serve-snap-metrics.jsonl"
cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile2" --snapshot-dir "$snapdir" --snapshot-every-ms 200 \
    > "$tmp/serve2.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile2" ] && break
    sleep 0.1
done
[ -s "$portfile2" ] || { echo "server never wrote $portfile2" >&2; exit 1; }
addr="$(cat "$portfile2")"
client open smoke samples/list.mc
client query smoke main::got data
client snapshot smoke                    # explicit snapshot into --snapshot-dir
client shutdown
wait "$srv_pid"
[ -s "$snapdir/smoke.snap" ] || { echo "no snapshot written to $snapdir" >&2; exit 1; }

cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile2.b" --metrics-out "$snap_metrics" \
    --snapshot-dir "$snapdir" --restore \
    > "$tmp/serve3.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile2.b" ] && break
    sleep 0.1
done
[ -s "$portfile2.b" ] || { echo "server never wrote $portfile2.b" >&2; exit 1; }
addr="$(cat "$portfile2.b")"
client open smoke samples/list.mc        # --restore warm-starts from smoke.snap
client query smoke main::got data
client shutdown
wait "$srv_pid"
cargo run -q -p ddpa-cli -- jsonl-check "$snap_metrics"
grep -q '"name":"snap.load","value":[1-9]' "$snap_metrics" \
    || { echo "metrics missing a nonzero snap.load after --restore" >&2; exit 1; }
grep -q '"name":"demand.share.hits","value":[1-9]' "$snap_metrics" \
    || { echo "restored session answered cold (no demand.share.hits)" >&2; exit 1; }

# A corrupted snapshot must be refused cleanly, offline, at the CLI level.
cp samples/list.mc "$tmp/snap-prog.mc"
cli_snap="$tmp/cli.snap"
cargo run -q -p ddpa-cli -- snapshot "$tmp/snap-prog.mc" --out "$cli_snap" > /dev/null
cargo run -q -p ddpa-cli -- restore "$tmp/snap-prog.mc" "$cli_snap" > /dev/null
printf 'garbage' >> "$cli_snap"
if cargo run -q -p ddpa-cli -- restore "$tmp/snap-prog.mc" "$cli_snap" > /dev/null 2>&1; then
    echo "corrupted snapshot was not refused" >&2; exit 1
fi

echo "==> incremental edit smoke test"
# A warm session edited via add-constraints keeps the goals whose
# support sets miss the edit: the differential suite (fixed seeds)
# proves the split is exact across edit scripts; end-to-end, the edit
# must leave a nonzero demand.dirty.retained in the metrics export and
# a re-query of an untouched goal must answer at zero deduction work.
cargo test -q -p ddpa-demand --test incremental
edit_base="$tmp/edit-base.cons"
edit_extra="$tmp/edit-extra.cons"
printf 'p = &o\nq = p\nr = &u\n' > "$edit_base"
printf 's = r\n' > "$edit_extra"
portfile5="$tmp/serve-edit-port"
edit_metrics="$tmp/serve-edit-metrics.jsonl"
cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile5" --metrics-out "$edit_metrics" \
    > "$tmp/serve-edit.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile5" ] && break
    sleep 0.1
done
[ -s "$portfile5" ] || { echo "server never wrote $portfile5" >&2; exit 1; }
addr="$(cat "$portfile5")"
client open smoke "$edit_base"
client query smoke q r                   # warm both chains
client add smoke "$edit_extra"           # touches only the r-chain
# The untouched q-chain answers from the still-warm table.
cargo run -q -p ddpa-cli -- client --addr "$addr" query smoke q \
    > "$tmp/edit-requery.out"
grep -q '"work":0' "$tmp/edit-requery.out" \
    || { echo "re-query after edit re-derived an untouched goal: $(cat "$tmp/edit-requery.out")" >&2; exit 1; }
client shutdown
wait "$srv_pid"
cargo run -q -p ddpa-cli -- jsonl-check "$edit_metrics"
grep -q '"name":"demand.dirty.retained","value":[1-9]' "$edit_metrics" \
    || { echo "metrics missing a nonzero demand.dirty.retained" >&2; exit 1; }

echo "==> batch fan-out smoke test"
# A "parallel": true batch fans its queries out over the server's worker
# pool (one engine per worker, one shared memo table). Against a live
# --workers 2 server, the fanned-out answers must equal those of the
# same batch on the session's warm engine; `work` is stripped before the
# comparison because it depends on which engine derived a goal first.
prog="$tmp/fanout.cons"
cargo run -q -p ddpa-cli -- gen --size 2000 --seed 7 > "$prog"
# The first 40 dereferenced pointers (`x = *p` lines) of the program.
names="$(sed -n 's/^.* = \*//p' "$prog" | sort -u | head -40 | tr '\n' ' ')"
portfile4="$tmp/serve-fanout-port"
fanout_metrics="$tmp/serve-fanout-metrics.jsonl"
cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile4" --metrics-out "$fanout_metrics" \
    --workers 2 \
    > "$tmp/serve-fanout.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile4" ] && break
    sleep 0.1
done
[ -s "$portfile4" ] || { echo "server never wrote $portfile4" >&2; exit 1; }
addr="$(cat "$portfile4")"
client open seq "$prog"
client open par "$prog"
# shellcheck disable=SC2086 # one argument per name
cargo run -q -p ddpa-cli -- client --addr "$addr" query seq $names \
    | sed -e 's/"work":[0-9]*//g' -e 's/"session":"[a-z]*"//' > "$tmp/fanout-seq.out"
# shellcheck disable=SC2086
cargo run -q -p ddpa-cli -- client --addr "$addr" query par $names --parallel \
    | sed -e 's/"work":[0-9]*//g' -e 's/"session":"[a-z]*"//' > "$tmp/fanout-par.out"
grep -q '"pts":\["' "$tmp/fanout-seq.out" \
    || { echo "fan-out smoke batch answered nothing: $(cat "$tmp/fanout-seq.out")" >&2; exit 1; }
cmp -s "$tmp/fanout-seq.out" "$tmp/fanout-par.out" \
    || { echo "fanned-out batch differs from the warm-engine batch" >&2; exit 1; }
client shutdown
wait "$srv_pid"
cargo run -q -p ddpa-cli -- jsonl-check "$fanout_metrics"

echo "All checks passed."
