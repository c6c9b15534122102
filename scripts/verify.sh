#!/usr/bin/env bash
# Tier-1 verification: everything must pass offline (no registry access;
# proptest resolves to the path shim under vendor/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
# --workspace: the root crate alone won't link the member binary
# (century-serve) that a later smoke step executes.
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== property tests (feature-gated proptest suite, tests/properties.rs) =="
cargo test -q --release --features proptest --test properties

echo "== golden digests (regression; drift fails, bless via scripts/bless.sh) =="
# CI note: in a perf-only PR a digest change here is a CORRECTNESS failure,
# not a baseline to re-bless — the scheduler/profiling contract is that
# optimizations never reorder events or touch digested state. The one
# exception: a perf change that swaps a sampler for one equal in
# distribution may re-bless, only in its own labelled commit, only behind
# an equivalence test that passes (such as the KS step below), and never
# touching a Legacy (paper_experiment) line.
cargo test -q --release --test golden_digests

echo "== lifetime law (KS test, 400k draws per side: tabulated cohort-mode lifetimes equal the BOM in distribution) =="
cargo test -q --release --test lifetime_law -- --ignored

echo "== golden snapshot format (layout pin; intentional changes bump FLEET_SNAPSHOT_VERSION) =="
cargo test -q --release --test golden_snapshot

echo "== benchmark harness (perfbench compiles against the changed crates; its unit tests pass) =="
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== example smoke pass =="
cargo run -q --release --example quickstart > /dev/null
cargo run -q --release --example fifty_year_experiment > /dev/null

echo "== lint gate (clippy, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc gate (broken or private intra-doc links; warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== simlint v2 (determinism flow rules R001-R004 + lexical rules, DESIGN.md §8, §15) =="
# Baseline-gated: any finding NOT in target/simlint-baseline.json exits 1
# and fails verify. The shipped tree is clean, so the baseline is normally
# absent/empty; to accept a documented finding during a transition, run
#   cargo run -q --release -p simlint -- --workspace --write-baseline target/simlint-baseline.json
# and commit the justification (EXPERIMENTS.md explains the workflow).
# The JSON artifact is left in target/simlint.json for CI.
cargo run -q --release -p simlint -- --workspace --baseline target/simlint-baseline.json
cargo run -q --release -p simlint -- --workspace --baseline target/simlint-baseline.json \
  --json > target/simlint.json

echo "== LA-scale grid budget (320k poles; grid resolve must finish within its wall-clock budget) =="
cargo test -q --release --test grid_differential \
  coverage_grid_resolves_the_320k_pole_city_within_budget -- --ignored

echo "== century horizon (100k devices x 50 years, aggregate; streamed export and digest equal the text oracles) =="
cargo test -q --release -p fleet --lib \
  -- --ignored century_horizon_export_and_digest_match_the_text_oracles

echo "== century-horizon pins (100k and 1M devices x 50 years, aggregate; digest, export FNV, events and queue high-water fixed) =="
cargo test -q --release --test golden_digests -- --ignored century_horizon_runs_match_their_pins

echo "== century memory (1M devices x 50 years, serial; the pinned digest at <= 260 MiB peak RSS) =="
century=$(cargo run -q --release --example century_horizon -- 1000000 50)
echo "$century"
echo "$century" | grep -q '^digest *51b4de2cb967383b$' \
  || { echo "verify: FAIL — the 1M x 50 y run digest is not 51b4de2cb967383b" >&2; exit 1; }
# The peak after the last phase (VmHWM) is the run's peak.
century_peak=$(echo "$century" | sed -n 's/^drop .*peak RSS *\([0-9]*\) MiB.*/\1/p')
if [ -z "$century_peak" ] || [ "$century_peak" -gt 260 ]; then
  echo "verify: FAIL — the 1M x 50 y run peaked at ${century_peak:-n/a} MiB (gate: 260 MiB)" >&2
  exit 1
fi

echo "== filtered Box-Muller kernel (10^8 draws; the table kernel's rounded counts equal the libm expression's) =="
cargo test -q --release -p simcore --lib -- --ignored rounded_matches_libm_over_a_hundred_million_pairs

echo "== serve smoke (daemon up; miss -> hit with equal digests; replay re-proof; streamed hit; stats histograms; graceful shutdown) =="
rm -rf target/verify-serve-cache
./target/release/century-serve --cache-dir target/verify-serve-cache \
  > target/verify-serve-ready.json &
serve_pid=$!
# The daemon prints {"type":"ready","addr":"127.0.0.1:PORT"} once the
# socket is accepting; wait for that line (bounded), then read the port.
for _ in $(seq 1 100); do
  grep -q '"type":"ready"' target/verify-serve-ready.json 2>/dev/null && break
  sleep 0.1
done
serve_addr=$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' target/verify-serve-ready.json)
if [ -z "$serve_addr" ]; then
  echo "verify: FAIL — century-serve never became ready" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
serve_req='{"op":"run","seed":9,"years":5}'
cold=$(./target/release/century-serve --addr "$serve_addr" --request "$serve_req")
warm=$(./target/release/century-serve --addr "$serve_addr" --request "$serve_req")
echo "$cold" | grep -q '"served":"miss"' \
  || { echo "verify: FAIL — first serve request was not a miss: $cold" >&2; exit 1; }
echo "$warm" | grep -q '"served":"hit"' \
  || { echo "verify: FAIL — second serve request was not a cache hit: $warm" >&2; exit 1; }
cold_digest=$(echo "$cold" | sed -n 's/.*"digest":\([0-9]*\).*/\1/p')
warm_digest=$(echo "$warm" | sed -n 's/.*"digest":\([0-9]*\).*/\1/p')
if [ -z "$cold_digest" ] || [ "$cold_digest" != "$warm_digest" ]; then
  echo "verify: FAIL — cache hit digest drifted ($cold_digest vs $warm_digest)" >&2
  exit 1
fi
./target/release/century-serve --addr "$serve_addr" \
  --request '{"op":"replay","seed":9,"years":5}' \
  | grep -q '"verified":true' \
  || { echo "verify: FAIL — replay did not re-prove the cached digest" >&2; exit 1; }
# A streamed hit carries one body frame per body line (the response is
# buffered and flushed once, so a lost or duplicated frame shows here).
streamed=$(./target/release/century-serve --addr "$serve_addr" \
  --request '{"op":"run","seed":9,"years":5,"stream":true}')
streamed_result=$(echo "$streamed" | tail -n 1)
echo "$streamed_result" | grep -q '"served":"hit"' \
  || { echo "verify: FAIL — streamed request was not a cache hit: $streamed_result" >&2; exit 1; }
body_frames=$(echo "$streamed" | grep -c '"type":"body"' || true)
body_lines=$(echo "$streamed_result" | sed -n 's/.*"body_lines":\([0-9]*\).*/\1/p')
if [ -z "$body_lines" ] || [ "$body_lines" -lt 1 ] || [ "$body_frames" != "$body_lines" ]; then
  echo "verify: FAIL — streamed $body_frames body frames for $body_lines body lines" >&2
  exit 1
fi
# The latency histograms reach the flat stats op.
respond_count=$(./target/release/century-serve --addr "$serve_addr" --request '{"op":"stats"}' \
  | sed -n 's/.*"serve\.respond_ms\.count":\([0-9]*\).*/\1/p')
if [ -z "$respond_count" ] || [ "$respond_count" -lt 1 ]; then
  echo "verify: FAIL — stats shows no serve.respond_ms observations" >&2
  exit 1
fi
./target/release/century-serve --addr "$serve_addr" \
  --request '{"op":"shutdown"}' > /dev/null
wait "$serve_pid" \
  || { echo "verify: FAIL — daemon did not exit cleanly after shutdown" >&2; exit 1; }
rm -rf target/verify-serve-cache target/verify-serve-ready.json

echo "verify: OK"
