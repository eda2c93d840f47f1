#!/bin/sh
# Offline CI for islaris-rs. Every step runs without network access: the
# workspace has no external dependencies (std only), so --offline always
# resolves.
set -eu
cd "$(dirname "$0")"

echo "== build (release, whole workspace, warnings are errors) =="
RUSTFLAGS="-D warnings" cargo build --release --workspace --offline

echo "== tier-1 tests (root package) =="
cargo test --release -q --offline

echo "== full workspace tests =="
cargo test --release -q --workspace --offline

echo "== benchmark tests (its own workspace; catches API breaks in the"
echo "   entry points the benchmark calls) =="
cargo test --release -q --offline --manifest-path benchmark/Cargo.toml

echo "== formatting =="
cargo fmt --all --check

echo "== fig12 parallel smoke (--jobs 2: asserts stable rows are"
echo "   byte-identical across sequential/cold/warm runs) =="
cargo run --release -q --offline -p islaris-bench --bin fig12 -- --jobs 2

echo "== fig12 profile smoke (counters for every stage + valid Chrome trace) =="
profile_out=$(mktemp -d)
trap 'rm -rf "$profile_out"' EXIT
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --profile --jobs 2 --profile-out "$profile_out/trace.json" \
    | tee "$profile_out/profile.txt"
# fig12 --profile already self-validates the emitted JSON (by re-parsing
# it with the in-tree parse_json) and exits non-zero otherwise; double-check the file
# landed and the confirmation line was printed.
test -s "$profile_out/trace.json"
grep -q "valid JSON" "$profile_out/profile.txt"
for stage in 'sail    :' 'isla    :' 'isla.smt:' 'engine  :' 'eng.smt :' \
             'sess    :' 'cert    :' 'cert.smt:' 'cache   :' 'q.cache :'; do
    grep -qF "$stage" "$profile_out/profile.txt" \
        || { echo "stage '$stage' missing from profile output"; exit 1; }
done

echo "== fig12 solver-cache A/B smoke (verdicts and all counters outside the"
echo "   cache rows are byte-identical across --solver-cache on/off) =="
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --profile --jobs 2 --solver-cache on > "$profile_out/sc_on.txt"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --profile --jobs 2 --solver-cache off > "$profile_out/sc_off.txt"
grep -Ev '^[[:space:]]*(cache|q\.cache) ' "$profile_out/sc_on.txt" \
    > "$profile_out/sc_on_stable.txt"
grep -Ev '^[[:space:]]*(cache|q\.cache) ' "$profile_out/sc_off.txt" \
    > "$profile_out/sc_off_stable.txt"
cmp "$profile_out/sc_on_stable.txt" "$profile_out/sc_off_stable.txt" \
    || { echo "--solver-cache on/off changed counters outside the cache rows"; exit 1; }
grep -qE 'q\.cache : hits=[0-9]+ misses=[1-9]' "$profile_out/sc_on.txt" \
    || { echo "--solver-cache on registered no query-cache traffic"; exit 1; }

echo "== fig12 hot-query smoke (per-case + pipeline-wide attribution tables) =="
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --profile --jobs 2 --hot-queries 3 > "$profile_out/hot.txt"
grep -q "hot queries (pipeline, top " "$profile_out/hot.txt" \
    || { echo "pipeline-wide hot-query table missing"; exit 1; }
grep -q "hot queries (memcpy (Arm), top " "$profile_out/hot.txt" \
    || { echo "per-case hot-query table missing"; exit 1; }

echo "== fig12 proof-trace smoke (deterministic across reruns) =="
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --trace-proof hvc > "$profile_out/ptrace1.txt"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --trace-proof hvc > "$profile_out/ptrace2.txt"
cmp "$profile_out/ptrace1.txt" "$profile_out/ptrace2.txt" \
    || { echo "proof trace differs between reruns"; exit 1; }
grep -q "open" "$profile_out/ptrace1.txt" \
    || { echo "proof trace has no opened obligations"; exit 1; }

echo "== fig12 bench json smoke (valid schema, all cases x both halves) =="
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --bench 1 --warmup 0 --json "$profile_out/bench.json" > /dev/null
test -s "$profile_out/bench.json"
grep -q '"schema":"islaris-bench/v1"' "$profile_out/bench.json" \
    || { echo "bench json missing schema tag"; exit 1; }
for slug in memcpy_arm memcpy_riscv hvc pkvm unaligned uart rbit \
            binsearch_arm binsearch_riscv; do
    for half in trace verify; do
        grep -q "\"name\":\"$half/$slug\"" "$profile_out/bench.json" \
            || { echo "bench sample $half/$slug missing"; exit 1; }
    done
done

echo "== regression gate (self-compare passes; perturbed copy fails) =="
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --bench-compare "$profile_out/bench.json" "$profile_out/bench.json" \
    > /dev/null || { echo "self-compare must exit 0"; exit 1; }
# Inflate the first median 1000x: the gate must flag it and exit nonzero.
sed 's/"median_ns":\([0-9]*\)/"median_ns":\1000/' "$profile_out/bench.json" \
    > "$profile_out/bench_slow.json"
if cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --bench-compare "$profile_out/bench.json" "$profile_out/bench_slow.json" \
    > "$profile_out/compare.txt"; then
    echo "perturbed compare must exit nonzero"; exit 1
fi
grep -q "REGRESSION" "$profile_out/compare.txt" \
    || { echo "regression rows missing from compare output"; exit 1; }

echo "== committed baseline compare (informational: medians drift across"
echo "   hosts, so this reports but never fails the build) =="
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --bench-compare BENCH_seed.json "$profile_out/bench.json" \
    --threshold 1000000 || echo "note: baseline drift beyond huge threshold"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --bench-compare BENCH_seed.json BENCH_pr5.json \
    --threshold 1000000 || echo "note: committed baselines drift beyond huge threshold"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --bench-compare BENCH_pr5.json BENCH_pr6.json \
    --threshold 1000000 || echo "note: committed baselines drift beyond huge threshold"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --bench-compare BENCH_pr6.json BENCH_pr7.json \
    --threshold 1000000 || echo "note: committed baselines drift beyond huge threshold"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --bench-compare BENCH_pr7.json BENCH_pr10.json \
    --threshold 1000000 || echo "note: committed baselines drift beyond huge threshold"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --bench-compare BENCH_pr10.json BENCH_pr16.json \
    --threshold 1000000 || echo "note: committed baselines drift beyond huge threshold"

echo "== fig12 --serve smoke (daemon on an ephemeral port: cold-then-warm"
echo "   1000-request replay over one persistent store, bodies must be"
echo "   byte-identical and the warm restart must hit the disk store) =="
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --gen-requests "$profile_out/reqs.json" --count 1000
printf '%s' '{"schema":"islaris-replay/v1","requests":[{"method":"GET","path":"/stats","body":""},{"method":"POST","path":"/shutdown","body":""}]}' \
    > "$profile_out/stats_shutdown.json"
serve_up() {
    rm -f "$profile_out/port"
    cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
        --serve 0 --store "$profile_out/store" --port-file "$profile_out/port" &
    serve_pid=$!
    for _ in $(seq 1 200); do [ -s "$profile_out/port" ] && break; sleep 0.1; done
    [ -s "$profile_out/port" ] || { echo "server did not start"; exit 1; }
    addr="127.0.0.1:$(cat "$profile_out/port")"
}
serve_up
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --replay "$profile_out/reqs.json" --addr "$addr" --clients 4 \
    --dump "$profile_out/cold" > "$profile_out/cold.txt"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --replay "$profile_out/stats_shutdown.json" --addr "$addr" > /dev/null
wait "$serve_pid" || { echo "server exited nonzero after cold run"; exit 1; }
serve_up
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --replay "$profile_out/reqs.json" --addr "$addr" --clients 4 \
    --dump "$profile_out/warm" > "$profile_out/warm.txt"
# Every response body byte-identical cold vs warm restart...
diff -r "$profile_out/cold" "$profile_out/warm" \
    || { echo "warm restart bodies differ from the cold run"; exit 1; }
# ...and the stable reports too (status + digest per request; the
# trailing telemetry line is the documented nondeterministic output).
sed '$d' "$profile_out/cold.txt" > "$profile_out/cold_stable.txt"
sed '$d' "$profile_out/warm.txt" > "$profile_out/warm_stable.txt"
cmp "$profile_out/cold_stable.txt" "$profile_out/warm_stable.txt" \
    || { echo "warm stable report differs from the cold run"; exit 1; }
# The warm restart must actually serve from the persistent store.
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --replay "$profile_out/stats_shutdown.json" --addr "$addr" \
    --dump "$profile_out/warmstats" > /dev/null
wait "$serve_pid" || { echo "server exited nonzero after warm run"; exit 1; }
grep -Eq '"disk_hits":[1-9]' "$profile_out/warmstats/0000.body" \
    || { echo "warm restart registered no disk hits"; exit 1; }

echo "== fig12 observability smoke (metrics exposition, trace journal,"
echo "   structured event log; bodies stay deterministic with all of it on) =="
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --gen-requests "$profile_out/reqs100.json" --count 100
rm -f "$profile_out/port"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --serve 0 --store "$profile_out/store" --port-file "$profile_out/port" \
    --log "$profile_out/events.jsonl" &
serve_pid=$!
for _ in $(seq 1 200); do [ -s "$profile_out/port" ] && break; sleep 0.1; done
[ -s "$profile_out/port" ] || { echo "server did not start"; exit 1; }
addr="127.0.0.1:$(cat "$profile_out/port")"
# Mixed workload bracketed by two /metrics scrapes: --metrics-delta
# parses both expositions (failing on a malformed one) and appends the
# server-side delta report as the last output line. 100 workload
# requests + the closing scrape itself = a delta of exactly 101.
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --replay "$profile_out/reqs100.json" --addr "$addr" --clients 4 \
    --metrics-delta > "$profile_out/obs.txt"
tail -n 1 "$profile_out/obs.txt" > "$profile_out/delta.json"
grep -q '"requests":101' "$profile_out/delta.json" \
    || { echo "metrics delta did not count the replay"; exit 1; }
grep -q '"unknown-case":' "$profile_out/delta.json" \
    || { echo "metrics delta missed the error-probe counters"; exit 1; }
grep -q '"p90_le":' "$profile_out/delta.json" \
    || { echo "metrics delta has no latency quantiles"; exit 1; }
# A raw scrape must expose every typed error kind, the latency
# histograms, and the persistent-store gauges.
printf '%s' '{"schema":"islaris-replay/v1","requests":[{"method":"GET","path":"/metrics","body":""},{"method":"GET","path":"/trace","body":""}]}' \
    > "$profile_out/obs_reqs.json"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --replay "$profile_out/obs_reqs.json" --addr "$addr" \
    --dump "$profile_out/obsdump" > /dev/null
for kind in malformed-request head-too-large body-too-large truncated-body \
            invalid-json bad-request unknown-case bad-opcode deadline-exceeded \
            overloaded internal unknown-path method-not-allowed; do
    grep -q "islaris_errors_total{kind=\"$kind\"}" "$profile_out/obsdump/0000.body" \
        || { echo "error kind $kind missing from /metrics"; exit 1; }
done
grep -q 'islaris_request_wall_ns_bucket{le="' "$profile_out/obsdump/0000.body" \
    || { echo "latency histogram missing from /metrics"; exit 1; }
grep -q 'islaris_store_disk_hits{store="traces"}' "$profile_out/obsdump/0000.body" \
    || { echo "disk-store gauges missing from /metrics"; exit 1; }
# Fetch one journaled request's Chrome trace and validate it with the
# in-tree JSON validator (fig12 --check-json).
trace_id=$(grep -o '"trace":"[0-9a-f]\{16\}"' "$profile_out/obsdump/0001.body" \
    | tail -n 1 | cut -d'"' -f4)
[ -n "$trace_id" ] || { echo "journal index has no trace ids"; exit 1; }
printf '{"schema":"islaris-replay/v1","requests":[{"method":"GET","path":"/trace/%s","body":""}]}' \
    "$trace_id" > "$profile_out/trace_one.json"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --replay "$profile_out/trace_one.json" --addr "$addr" \
    --dump "$profile_out/tracedump" > /dev/null
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --check-json "$profile_out/tracedump/0000.body"
grep -q '"ph":"X"' "$profile_out/tracedump/0000.body" \
    || { echo "chrome trace has no span events"; exit 1; }
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --replay "$profile_out/stats_shutdown.json" --addr "$addr" > /dev/null
wait "$serve_pid" || { echo "server exited nonzero after observability run"; exit 1; }
# Every event-log line must re-parse with the in-tree JSON parser, and
# the full request lifecycle must be present.
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --check-log "$profile_out/events.jsonl"
for kind in server-start accept request enqueue dequeue execute respond server-stop; do
    grep -q "\"kind\":\"$kind\"" "$profile_out/events.jsonl" \
        || { echo "event log missing lifecycle kind $kind"; exit 1; }
done
grep -q '"error":"unknown-case"' "$profile_out/events.jsonl" \
    || { echo "event log did not record the error probe"; exit 1; }

echo "== intra-case parallelism smoke (one /verify case request: --workers 4"
echo "   must beat --workers 1 on X-Islaris-Wall-Ns with byte-identical bodies) =="
printf '%s' '{"schema":"islaris-replay/v1","requests":[{"method":"POST","path":"/verify","body":"{\"kind\":\"case\",\"slug\":\"memcpy_riscv\"}"},{"method":"POST","path":"/verify","body":"{\"kind\":\"case\",\"slug\":\"memcpy_riscv\"}"}]}' \
    > "$profile_out/one_case.json"
for w in 1 4; do
    rm -f "$profile_out/port"
    cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
        --serve 0 --workers "$w" --port-file "$profile_out/port" &
    serve_pid=$!
    for _ in $(seq 1 200); do [ -s "$profile_out/port" ] && break; sleep 0.1; done
    [ -s "$profile_out/port" ] || { echo "server did not start"; exit 1; }
    addr="127.0.0.1:$(cat "$profile_out/port")"
    # Two identical requests: the first (cold) measures the verification
    # half the workers parallelise — trace generation is ~2% of this
    # case's wall — and the second pins body determinism across cache
    # states under both worker counts.
    cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
        --replay "$profile_out/one_case.json" --addr "$addr" \
        --dump "$profile_out/w$w" --dump-headers "$profile_out/w${w}_hdr" > /dev/null
    cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
        --replay "$profile_out/stats_shutdown.json" --addr "$addr" > /dev/null
    wait "$serve_pid" || { echo "server exited nonzero after workers=$w run"; exit 1; }
done
diff -r "$profile_out/w1" "$profile_out/w4" \
    || { echo "verify bodies differ between --workers 1 and 4"; exit 1; }
wall_w1=$(grep -i '^X-Islaris-Wall-Ns:' "$profile_out/w1_hdr/0000.headers" | tr -dc 0-9)
wall_w4=$(grep -i '^X-Islaris-Wall-Ns:' "$profile_out/w4_hdr/0000.headers" | tr -dc 0-9)
[ -n "$wall_w1" ] && [ -n "$wall_w4" ] \
    || { echo "X-Islaris-Wall-Ns header missing from a dump"; exit 1; }
echo "single-request wall: workers=1 ${wall_w1}ns, workers=4 ${wall_w4}ns"
# The speedup assertion needs real cores: on a single-CPU host the four
# workers time-slice one core and the scheduling overhead makes w4 >= w1,
# so only the body-determinism and header-presence checks bind there.
if [ "$(nproc)" -gt 1 ]; then
    [ "$wall_w4" -lt "$wall_w1" ] \
        || { echo "--workers 4 did not beat --workers 1 on a single request"; exit 1; }
else
    echo "single core ($(nproc)): skipping the w4<w1 assertion (informational only)"
fi

echo "== solver fuzzer smoke (differential CDCL configs on random CNF; full"
echo "   256-case run lives in the workspace test step, this pins the gate) =="
ISLARIS_PT_CASES=32 cargo test --release -q --offline -p islaris-smt --test sat_fuzz

echo "== fig12 solver-feature A/B smoke (one feature off: verdict rows must"
echo "   be byte-identical, counters attribute the feature's work) =="
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --sat-off fold > "$profile_out/sat_off.txt"
grep -q "stable rows: identical across both configurations" "$profile_out/sat_off.txt" \
    || { echo "--sat-off fold did not confirm identical verdict rows"; exit 1; }

echo "== difftest smoke (fixed seed, small budget: zero divergences and"
echo "   byte-identical reports across reruns and --jobs values) =="
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --difftest --seed 1 --budget 120 > "$profile_out/diff1.txt"
cargo run --release -q --offline -p islaris-bench --bin fig12 -- \
    --difftest --seed 1 --budget 120 --jobs 4 > "$profile_out/diff2.txt"
cmp "$profile_out/diff1.txt" "$profile_out/diff2.txt" \
    || { echo "difftest report depends on --jobs"; exit 1; }
grep -q "divergences=0" "$profile_out/diff1.txt" \
    || { echo "difftest found divergences on the shipped models"; exit 1; }
grep -q "^coverage classes=29 " "$profile_out/diff1.txt" \
    || { echo "difftest coverage lost decoder classes"; exit 1; }

echo "== divergence report format (planted-bug test asserts the stable"
echo "   counterexample shape the docs promise) =="
cargo test --release -q --offline -p islaris-difftest --test planted_bug

echo "CI OK"
