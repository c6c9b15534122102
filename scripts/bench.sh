#!/usr/bin/env bash
# The repository benchmark, recorded: runs the BENCHMARK.json command
# (perfbench) on every workload at seed 0 for 20 s, once untraced and
# once traced, and writes BENCH_perfbench.json at the repo root. Each row
# holds the git rev, the host's core count, the workload, seed, seconds
# and trace flag, and perfbench's final JSON object verbatim (the
# end-to-end metrics, or with trace 1 the per-layer phase split).
#
# Then it runs the LA-scale differential: the 320k-pole city's coverage
# through the spatial grid must equal the pairwise oracle bit for bit
# (~3 min in a release build on a 2-core host).
#
# perfbench exits non-zero when any of its correctness gates fails, and
# so does this script: a speed number from a run that drifted is never
# recorded.
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_perfbench.json
rev=$(git describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)
cores=$(nproc)
seed=0
seconds=20

rows=()
for workload in fleet_1m paper_sweep serve_mix; do
  for trace in 0 1; do
    echo "== perfbench ${workload} (seed ${seed}, ${seconds} s, trace ${trace}) =="
    result=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
    rows+=("{\"git_rev\":\"${rev}\",\"host_parallelism\":${cores},\"workload\":\"${workload}\",\"seed\":${seed},\"seconds\":${seconds},\"trace\":${trace},\"result\":${result}}")
  done
done

{
  echo "["
  for i in "${!rows[@]}"; do
    sep=","
    [ "$i" -eq $((${#rows[@]} - 1)) ] && sep=""
    echo "  ${rows[$i]}${sep}"
  done
  echo "]"
} > "$out"
echo "bench: wrote ${out}"

echo "== LA-scale grid differential (320k poles, grid == pairwise coverage) =="
cargo test -q --release --test grid_differential \
  coverage_grid_equals_pairwise_on_the_320k_pole_city -- --ignored
