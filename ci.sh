#!/usr/bin/env bash
# Offline CI gate: build, test, lint. No network access is required —
# the workspace is dependency-free by design (see DESIGN.md).
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q --workspace

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy pedantic (kernel + check + profile + perf + frontend + model) =="
# The protocol-critical crates additionally hold a pedantic bar. The
# allow list below is the accepted legacy noise (cast styles, must_use
# candidates, doc completeness); anything pedantic outside it fails.
cargo clippy -p hal-kernel -p hal-check -p hal-profile -p hal-perf -p hal-frontend -p hal-model \
  --all-targets -- -D warnings -W clippy::pedantic \
  -A clippy::cast_possible_truncation -A clippy::cast_lossless -A clippy::cast_sign_loss \
  -A clippy::cast_precision_loss -A clippy::cast_possible_wrap -A clippy::must_use_candidate \
  -A clippy::return_self_not_must_use -A clippy::missing_panics_doc -A clippy::missing_errors_doc \
  -A clippy::doc_markdown -A clippy::redundant_closure_for_method_calls -A clippy::unnested_or_patterns \
  -A clippy::uninlined_format_args -A clippy::too_many_lines -A clippy::single_match_else \
  -A clippy::semicolon_if_nothing_returned -A clippy::match_same_arms -A clippy::map_unwrap_or \
  -A clippy::if_not_else -A clippy::format_push_string -A clippy::unreadable_literal \
  -A clippy::struct_excessive_bools -A clippy::similar_names -A clippy::needless_pass_by_value \
  -A clippy::many_single_char_names -A clippy::items_after_statements -A clippy::float_cmp \
  -A clippy::enum_glob_use -A clippy::elidable_lifetime_names -A clippy::checked_conversions

echo "== model-checker suite (hal-model + kernel protocol programs) =="
# The deterministic interleaving explorer's own tests, then the kernel's
# fused-boundary/live-lifecycle protocol programs under `--features
# model` (clean under exploration; both seeded barrier bugs must be
# *found*, trace included). Bounds are tuned to keep the whole suite
# under a minute on the 1-core CI container — see DESIGN.md §14.
cargo test -q -p hal-model
cargo test -q -p hal-kernel --features model --test model_tests

echo "== tsan smoke (optional: nightly + rust-src) =="
# ThreadSanitizer over the kernel's real threaded tests catches what the
# model explorer can't reach (std internals, the full executor). It
# needs a nightly toolchain AND the rust-src component (-Zbuild-std, so
# std itself is instrumented — without it TSan false-positives on
# uninstrumented std sync). Auto-skip when either is missing: the gate
# is opportunistic, never a hard dependency of offline CI.
if rustup toolchain list 2>/dev/null | grep -q '^nightly' \
   && rustup component list --toolchain nightly 2>/dev/null | grep -q '^rust-src.*(installed)'; then
  host_triple="$(rustc -vV | sed -n 's/^host: //p')"
  RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -q -p hal-kernel --lib -Zbuild-std --target "$host_triple" \
    --target-dir target/tsan \
    || { echo "ci: tsan smoke failed"; exit 1; }
  echo "   tsan: hal-kernel lib tests clean under ThreadSanitizer"
else
  echo "   tsan: skipped (needs nightly toolchain with rust-src; offline CI stays green)"
fi

echo "== parallel-equivalence smoke =="
# The windowed executor must produce byte-identical results at any host
# parallelism. Run two representative harnesses quick, sequential vs
# 4 threads, and diff their stdout (timing goes to stderr only).
# HAL_PARALLEL_FORCE keeps K=4 honest on small hosts: the bench bins cap
# requested K at the visible cores otherwise, and this smoke exists to
# exercise the threaded paths even on 1-core CI.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
mkdir -p "$smoke_dir/results"   # run from here so quick runs don't clobber committed results/
smoke() {
  local bin="$1" exe="$PWD/target/release/$1"
  (cd "$smoke_dir" && HAL_PARALLEL=1 "$exe" --quick >"$bin.seq.out" 2>/dev/null)
  (cd "$smoke_dir" && HAL_PARALLEL=4 HAL_PARALLEL_FORCE=1 "$exe" --quick >"$bin.par.out" 2>/dev/null)
  diff "$smoke_dir/$bin.seq.out" "$smoke_dir/$bin.par.out" \
    || { echo "ci: $bin output differs between HAL_PARALLEL=1 and 4"; exit 1; }
  echo "   $bin: identical across parallelism"
}
smoke table4_fib
smoke fig3_delivery

echo "== chaos smoke =="
# Seeded fault injection must be deterministic too: the chaos harness
# asserts exactly-once delivery internally, and its stdout (fault
# decisions included) must not depend on executor parallelism.
smoke chaos_delivery

echo "== spans/metrics smoke (table4_fib --spans --metrics) =="
# The observability exports are derived from virtual-time facts only:
# SPANS_/METRICS_ JSON must be byte-identical across executor
# parallelism, and the in-process assert guarantees the critical path
# never exceeds the makespan. Two runs, K=1 vs K=4, byte-compared.
obs() {
  local k="$1" tag="$2" exe="$PWD/target/release/table4_fib"
  (cd "$smoke_dir" && HAL_PARALLEL=$k HAL_PARALLEL_FORCE=1 HAL_SPANS=1 HAL_METRICS=1 "$exe" --quick \
     >"obs.$tag.out" 2>/dev/null)
  for f in SPANS_table4_fib.json METRICS_table4_fib.json; do
    [ -s "$smoke_dir/results/$f" ] || { echo "ci: $f missing/empty at K=$k"; exit 1; }
    cp "$smoke_dir/results/$f" "$smoke_dir/$tag.$f"
  done
}
obs 1 seq
obs 4 par
for f in SPANS_table4_fib.json METRICS_table4_fib.json; do
  cmp -s "$smoke_dir/seq.$f" "$smoke_dir/par.$f" \
    || { echo "ci: $f differs between HAL_PARALLEL=1 and 4"; exit 1; }
done
grep -q '"critical_path"' "$smoke_dir/results/SPANS_table4_fib.json" \
  || { echo "ci: SPANS_table4_fib.json has no critical_path section"; exit 1; }
grep -q '"samples"' "$smoke_dir/results/METRICS_table4_fib.json" \
  || { echo "ci: METRICS_table4_fib.json has no timeseries samples"; exit 1; }
echo "   table4_fib: spans+metrics present, byte-identical across parallelism"

echo "== protocol checker + lint + observability sweep (repro_all --quick --check --lint --spans --metrics) =="
# Every harness under the hal-check protocol invariant checker AND the
# hal-lint static protocol analyzer, both sequentially (HAL_PARALLEL=1)
# and on the windowed executor at a host-derived pinned K
# (available_parallelism clamped to [2, 7]) — repro_all runs each bin at
# both levels, fails if any verdict is dirty, byte-compares every
# span/metrics/lint export across the two levels, and writes a manifest
# of expected artifacts. Run from the scratch dir so committed results/
# stay untouched.
repo_root="$PWD"
(cd "$smoke_dir" && "$repo_root/target/release/repro_all" --quick --check --lint --spans --metrics 2>&1 | tail -n 20) \
  || { echo "ci: protocol checker sweep failed"; exit 1; }
grep -q '"clean": true' "$smoke_dir/results/CHECK_repro_all.json" \
  || { echo "ci: CHECK_repro_all.json is not clean"; exit 1; }
grep -q '"clean": true' "$smoke_dir/results/LINT_repro_all.json" \
  || { echo "ci: LINT_repro_all.json is not clean"; exit 1; }
grep -q 'SPANS_table5_matmul.json' "$smoke_dir/results/MANIFEST_repro_all.json" \
  || { echo "ci: MANIFEST_repro_all.json is missing span artifacts"; exit 1; }
echo "   repro_all --check --lint --spans --metrics: CLEAN at K=1 and the host-derived pinned K"

echo "== perf-gate (hal-perf diff vs results/baselines) =="
# Host-time attribution + throughput rot gate. Two representative bins
# run quick at K=7 with the profiler on; hal-perf then (a) summarizes
# the PROF_ artifacts as a smoke test and (b) diffs the fresh BENCH_/
# PROF_ artifacts against the committed baselines with generous
# thresholds (deterministic virtual facts exactly; host throughput may
# drop to 25% of baseline before failing — the CI container is 1-core
# and noisy). `./ci.sh --update-baselines` regenerates the committed
# files instead of diffing.
perf_bins="table4_fib fig3_delivery"
for bin in $perf_bins; do
  (cd "$smoke_dir" && HAL_PARALLEL=7 HAL_PARALLEL_FORCE=1 HAL_PROF=1 "$repo_root/target/release/$bin" --quick \
     >/dev/null 2>"$bin.prof.err")
  for f in "BENCH_$bin.json" "PROF_$bin.json" "PROF_${bin}_hosttrace.json"; do
    [ -s "$smoke_dir/results/$f" ] || { echo "ci: $f missing/empty after --prof run"; exit 1; }
  done
done
# Capture to a file rather than piping into `grep -q`: -q closes the
# pipe at the first match and the second summary's print would EPIPE.
"$repo_root/target/release/hal-perf" summarize \
  "$smoke_dir/results/PROF_table4_fib.json" "$smoke_dir/results/PROF_fig3_delivery.json" \
  > "$smoke_dir/perf_summary.txt" \
  || { echo "ci: hal-perf summarize failed"; exit 1; }
grep -q "top overhead source:" "$smoke_dir/perf_summary.txt" \
  || { echo "ci: hal-perf summarize produced no verdict"; exit 1; }
if [ "${1:-}" = "--update-baselines" ]; then
  mkdir -p results/baselines
  for bin in $perf_bins; do
    cp "$smoke_dir/results/BENCH_$bin.json" "$smoke_dir/results/PROF_$bin.json" results/baselines/
    # Observability baselines from the repro_all sweep above: sim-tagged
    # METRICS_/SPANS_ documents are deterministic, so the gate holds
    # them byte-exact.
    cp "$smoke_dir/results/METRICS_$bin.json" "$smoke_dir/results/SPANS_$bin.json" results/baselines/
  done
  # The repro_all sweep above left its sequential-vs-parallel speedup
  # table in the scratch results/ — baseline it so `hal-perf diff` can
  # gate per-bin speedup regressions (the `speedup` check).
  cp "$smoke_dir/results/BENCH_repro_all.json" results/baselines/
  echo "   baselines regenerated under results/baselines/ — review and commit"
else
  "$repo_root/target/release/hal-perf" diff \
    --baselines results/baselines --fresh "$smoke_dir/results" \
    || { echo "ci: perf gate failed against committed baselines"; exit 1; }
  # The gate must also FAIL when pointed at a genuinely regressed
  # baseline: inflate the committed throughput 10000x so the fresh run
  # looks collapsed, and require a nonzero exit.
  mkdir -p "$smoke_dir/regressed_baselines"
  for f in results/baselines/*.json; do
    sed 's/"events_per_sec": \([0-9][0-9]*\)/"events_per_sec": \19999/g' "$f" \
      >"$smoke_dir/regressed_baselines/$(basename "$f")"
  done
  if "$repo_root/target/release/hal-perf" diff \
       --baselines "$smoke_dir/regressed_baselines" --fresh "$smoke_dir/results" >/dev/null 2>&1; then
    echo "ci: hal-perf diff passed on a synthetically regressed baseline — the gate is inert"
    exit 1
  fi
  # Same inertness check for the observability documents: doctor one
  # deterministic fact in a METRICS_ baseline (busy_ns) and one in a
  # SPANS_ baseline (msgs_minted); the exact gate must catch both.
  mkdir -p "$smoke_dir/doctored_baselines"
  cp results/baselines/*.json "$smoke_dir/doctored_baselines/"
  sed -i 's/"busy_ns": \([0-9][0-9]*\)/"busy_ns": 7\1/' \
    "$smoke_dir/doctored_baselines/METRICS_table4_fib.json"
  sed -i 's/"msgs_minted": \([0-9][0-9]*\)/"msgs_minted": 7\1/' \
    "$smoke_dir/doctored_baselines/SPANS_table4_fib.json"
  if "$repo_root/target/release/hal-perf" diff \
       --baselines "$smoke_dir/doctored_baselines" --fresh "$smoke_dir/results" >/dev/null 2>&1; then
    echo "ci: hal-perf diff passed on doctored METRICS_/SPANS_ baselines — the exact gate is inert"
    exit 1
  fi
  echo "   perf gate: committed baselines pass, synthetic regressions caught (BENCH_ and METRICS_/SPANS_)"
fi

echo "== live-serve smoke (hal-serve --backend=live) =="
# The live backend under open-loop load: ~1s of wall at a modest rate
# through a 3-stage pipeline on 2 real kernel threads, with the flight
# recorder + hal-check on (--check exits nonzero on any protocol
# violation) and the SLO gate armed. `--verify` then re-parses the
# SERVE_ artifact and asserts the percentile ladder is sane
# (p50 <= p99 <= p999 <= max, completed <= offered).
(cd "$smoke_dir" && "$repo_root/target/release/hal-serve" \
   --backend=live --scenario=ci_smoke --nodes=2 --stages=3 \
   --rate=400 --requests=400 --stage-cost-us=20 --check \
   --metrics --watch >/dev/null 2>"$smoke_dir/serve_smoke.err") \
  || { echo "ci: live hal-serve run failed (SLO miss or checker violation)"; exit 1; }
"$repo_root/target/release/hal-serve" --verify "$smoke_dir/results/SERVE_ci_smoke.json" \
  || { echo "ci: SERVE_ci_smoke.json failed artifact verification"; exit 1; }
# Live telemetry: the artifact must carry the SLO burn-rate block, and
# the `--watch` printer must have emitted at least one non-empty `top`
# table (its total line is the distinctive marker).
grep -q '"burn_rate"' "$smoke_dir/results/SERVE_ci_smoke.json" \
  || { echo "ci: SERVE_ci_smoke.json has no burn_rate block"; exit 1; }
grep -q 'msg/s over' "$smoke_dir/serve_smoke.err" \
  || { echo "ci: --watch produced no telemetry top snapshot"; exit 1; }
echo "   hal-serve: live pipeline sustained load, artifact verified, checker CLEAN, burn-rate + top present"

echo "== benchmark package (own workspace: unit tests + 1 s live smokes) =="
# benchmark/ is a separate workspace with path deps on crates/*, so the
# workspace build above never compiles it: a crate change that breaks a
# signature it uses would otherwise surface only in the next measured
# run. Build and test it, then run both live workloads for one second
# each — the open loop (wake-up path) and the local closed loop (CPU per
# message, the workload the PR 16 claim rests on) — and require a correct
# result line with no failed operation.
cargo test --offline -q --manifest-path benchmark/Cargo.toml
for w in live_open_20k live_local_closed; do
  bench_line="$(bash benchmark/run.sh --workload "$w" --seconds 1 | tail -n 1)"
  grep -Eq '"correct": true, "attempted": [0-9]+, "failed": 0' <<<"$bench_line" \
    || { echo "ci: benchmark $w smoke failed: $bench_line"; exit 1; }
done
echo "   benchmark: unit tests pass, live_open_20k and live_local_closed correct with 0 failed"

echo "== cargo doc --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "ci: all gates passed"
