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

echo "== no environment reads under crates/ =="
# Configuration comes through MachineConfig and command-line flags, never
# from the environment (a getenv on a message path costs 60-80 ns, and a
# variable is a switch no artifact records).
if grep -rn 'env::var' crates/; then
  echo "ci: a crate reads the environment"; exit 1
fi

echo "== no host clock under crates/ outside the live runtime =="
# Host time is benchmark/'s to measure. The live node loop, its doorbell
# and hal-serve's open-loop generator pace themselves by it; nothing
# else under crates/ may read it (word match: registry.rs "Instantiate"s).
if grep -rnw 'Instant' crates/ \
   | grep -v -e '^crates/kernel/src/live\.rs:' -e '^crates/kernel/src/sync\.rs:' \
             -e '^crates/frontend/src/serve\.rs:'; then
  echo "ci: a crate outside the live runtime reads the host clock"; exit 1
fi

echo "== one JSON writer: no hand-formatted document under crates/*/src =="
# Every document is pushed through hal_des::json's Writer, which quotes
# and escapes keys itself; an escaped-quote key literal (\"name\":)
# anywhere else is a second writer growing back.
if grep -rnE '\\"[A-Za-z_][A-Za-z0-9_.]*\\":' crates/*/src | grep -v '^crates/des/src/json\.rs:'; then
  echo "ci: a JSON document is formatted by hand outside hal_des::json"; exit 1
fi

echo "== no process-lifetime state in workloads/ and baselines/ =="
# A behavior factory's inputs are its creation arguments (registry.rs:
# "construction state must travel in the creation message"), and a
# reference computes from its parameters: nothing the process remembers
# from an earlier call may shape either.
if grep -rn -e 'thread_local!' -e 'static mut' -e 'OnceLock' -e 'LazyLock' \
     crates/workloads/src crates/baselines/src; then
  echo "ci: a workload or baseline keeps state across calls"; exit 1
fi

echo "== one hash table: no std HashMap/HashSet/RandomState in des/, am/, kernel/ =="
# Every runtime map is hal_des::{Map, Set} (crates/des/src/table.rs): one
# hasher, chosen because every key is minted in-process, and an iteration
# order that is a function of the inserts. A std table here brings
# SipHash back onto the packet path and a per-instance random order with
# it. crates/check (offline trace analysis) is out of scope.
std_tables() {
  grep -nwE 'HashMap|HashSet|RandomState' "$@" | grep -v '^crates/des/src/table\.rs:'
}
if std_tables -r crates/des/src crates/am/src crates/kernel/src; then
  echo "ci: a std hash table outside hal_des::table"; exit 1
fi
# The gate must catch a planted line.
planted="$(mktemp)"
echo 'use std::collections::HashMap;' >"$planted"
std_tables "$planted" >/dev/null || { echo "ci: the one-table gate is inert"; rm -f "$planted"; exit 1; }
rm -f "$planted"

echo "== one message queue: no VecDeque<Msg> in kernel/ =="
# Every actor message a node holds lives in that node's MailSlab
# (crates/kernel/src/actor.rs), queued by a three-index Fifo. A VecDeque
# of messages is a per-actor heap buffer growing back: 320 B on an
# actor's first message, held until the actor dies.
msg_deques() {
  grep -nE 'VecDeque[[:space:]]*<[[:space:]]*Msg[[:space:]]*>' "$@"
}
if msg_deques -r crates/kernel/src; then
  echo "ci: a message queue outside the mail slab"; exit 1
fi
# The gate must catch a planted line.
planted="$(mktemp)"
echo '    pub mailq: VecDeque<Msg>,' >"$planted"
msg_deques "$planted" >/dev/null || { echo "ci: the one-queue gate is inert"; rm -f "$planted"; exit 1; }
rm -f "$planted"

echo "== packets stay boxed: no KMsg by value in a packet in kernel/ =="
# A kernel message is boxed once where it becomes a packet (net_send,
# arm_timer) and only the pointer moves until the receiving node manager
# unboxes it. An envelope or packet over KMsg by value copies the whole
# message at every hop instead. The loopback deque never becomes a
# packet and may hold KMsg.
unboxed_packets() {
  grep -nE '(AmEnvelope|Packet)[[:space:]]*<[[:space:]]*KMsg[[:space:]]*>' "$@"
}
if unboxed_packets -r crates/kernel/src; then
  echo "ci: a packet carries KMsg by value"; exit 1
fi
# The gate must catch a planted line of either kind.
planted="$(mktemp)"
for line in '    fn handle_envelope(&mut self, src: NodeId, env: AmEnvelope<KMsg>) {' \
            '    pub fn handle_packet(&mut self, pkt: Packet<KMsg>) {'; do
  echo "$line" >"$planted"
  unboxed_packets "$planted" >/dev/null || { echo "ci: the boxed-packet gate is inert"; rm -f "$planted"; exit 1; }
done
rm -f "$planted"

echo "== one histogram type, and a thread network that counts nothing =="
# hal_des::Histogram (crates/des/src/stats.rs) is the one histogram: a
# struct named *Hist* anywhere else is a second bucket layout growing
# back. A live node counts its own sends in its single-writer NodeCell; an
# atomic in crates/am/src/thread.rs is a second, shared copy of those
# counts, written by every node thread.
hist_structs() {
  grep -nE '\bstruct[[:space:]]+[A-Za-z0-9_]*Hist' "$@" | grep -v '^crates/des/src/stats\.rs:'
}
thread_counts() {
  grep -nE 'Atomic|fetch_add' "$@"
}
if hist_structs -r crates/*/src; then
  echo "ci: a histogram type outside hal_des::Histogram"; exit 1
fi
if thread_counts crates/am/src/thread.rs; then
  echo "ci: the thread network counts (count in the node's cell)"; exit 1
fi
# Each gate must catch a planted line.
planted="$(mktemp)"
echo 'pub struct LatencyHist {' >"$planted"
hist_structs "$planted" >/dev/null || { echo "ci: the one-histogram gate is inert"; rm -f "$planted"; exit 1; }
echo '        self.stats.packets.fetch_add(1, Ordering::Relaxed);' >"$planted"
thread_counts "$planted" >/dev/null || { echo "ci: the uncounted-network gate is inert"; rm -f "$planted"; exit 1; }
rm -f "$planted"

echo "== reliable windows are rings: no BTreeMap in am/src/reliable.rs =="
# Both per-peer windows of the reliable layer are VecDeque rings indexed
# by sequence number (unacked packets on the sender, holdback slots on
# the receiver). A BTreeMap there is the ordered-map window growing back:
# a node allocation per packet and a tree walk per ack.
rel_trees() {
  grep -nE 'BTreeMap' "$@"
}
if rel_trees crates/am/src/reliable.rs; then
  echo "ci: an ordered map in the reliable layer (use a ring)"; exit 1
fi
# The gate must catch a planted line.
planted="$(mktemp)"
echo '    unacked: BTreeMap<u64, (RelPayload<P>, usize)>,' >"$planted"
rel_trees "$planted" >/dev/null || { echo "ci: the ring-window gate is inert"; rm -f "$planted"; exit 1; }
rm -f "$planted"

echo "== one-slot joins: no arity-1 create_join in crates/, tests/, examples/ =="
# A join awaiting one reply is Ctx::create_reply_join: the reply moves
# straight into its body. create_join(1, ...) builds a slot vector and a
# Vec of values around that one reply instead. The arity may sit on the
# call's line or, when the call breaks after its paren, on the next one.
one_slot_joins() {
  awk 'FNR == 1 { pending = 0 }
       pending && /^[[:space:]]*1[[:space:]]*,/ { print FILENAME ":" FNR - 1 ": " prev }
       { pending = 0 }
       /create_join\(/ {
         rest = $0; sub(/.*create_join\(/, "", rest)
         if (rest ~ /^[[:space:]]*1[[:space:]]*,/) print FILENAME ":" FNR ": " $0
         else if (rest ~ /^[[:space:]]*$/) { pending = 1; prev = $0 }
       }' "$@"
}
mapfile -t sources < <(find crates tests examples -name '*.rs')
hits="$(one_slot_joins "${sources[@]}")"
[ -z "$hits" ] || { echo "$hits"; echo "ci: an arity-1 create_join (use Ctx::create_reply_join)"; exit 1; }
# The gate must catch a planted call on one line and across two, and
# pass a two-slot one.
planted="$(mktemp)"
printf '%s\n' '        let jc = ctx.create_join(' '            1,' '            vec![],' >"$planted"
[ -n "$(one_slot_joins "$planted")" ] || { echo "ci: the one-slot-join gate is inert"; rm -f "$planted"; exit 1; }
echo '    let jc = ctx.create_join(1, Vec::new(), body);' >"$planted"
[ -n "$(one_slot_joins "$planted")" ] || { echo "ci: the one-slot-join gate is inert"; rm -f "$planted"; exit 1; }
printf '%s\n' '        let jc = ctx.create_join(' '            2,' '            vec![],' >"$planted"
[ -z "$(one_slot_joins "$planted")" ] || { echo "ci: the one-slot-join gate refuses a two-slot join"; rm -f "$planted"; exit 1; }
rm -f "$planted"

echo "== one configuration record: no kernel config type, no per-node copies =="
# Every node runs the same kernel, configured by the machine's one
# MachineConfig (crates/kernel/src/machine.rs): a Kernel keeps its node id
# and a clone of that record, and decides what depends on the backend or
# the partition size where it reads it. A second *Config struct in the
# kernel, a per-node copying function, a sampler swapped in after
# construction, a record_* copy of ObserveOpts or a pooled argument
# buffer is a second copy of a setting growing back.
config_structs() {
  grep -nE '\bstruct[[:space:]]+[A-Za-z]*Config' "$@" | grep -v '^crates/kernel/src/machine\.rs:'
}
config_copies() {
  grep -nE 'for_node\(|enable_metrics\(|args_pool|record_(trace|metrics|timeline)' "$@"
}
if config_structs -r crates/kernel/src; then
  echo "ci: a configuration type in the kernel besides MachineConfig"; exit 1
fi
if config_copies -r crates tests examples; then
  echo "ci: a copy of a MachineConfig setting"; exit 1
fi
# Each gate must catch a planted line of each kind.
planted="$(mktemp)"
echo 'pub struct KernelConfig {' >"$planted"
config_structs "$planted" >/dev/null || { echo "ci: the one-config-type gate is inert"; rm -f "$planted"; exit 1; }
for line in '    let kcfg = KernelConfig::for_node(&cfg, me);' \
            '    k.enable_metrics(Metrics::LIVE_CADENCE_NS);' \
            '    args_pool: Vec<Vec<Value>>,' \
            '    pub record_trace: bool,' '    pub record_metrics: bool,' \
            '    if self.cfg.record_timeline {'; do
  echo "$line" >"$planted"
  config_copies "$planted" >/dev/null || { echo "ci: the no-copies gate is inert"; rm -f "$planted"; exit 1; }
done
rm -f "$planted"

echo "== one recovery path under link faults: no FIR watchdog, no unreliable chaos mode =="
# Under a plan with link faults every kernel packet travels under the
# reliable layer (crates/am/src/reliable.rs), which re-sends it until it
# is acked: that is the one thing that recovers a lost packet, an FIR or
# its reply included (DESIGN.md §9). A switch that turns the layer off,
# an FIR watchdog with its timer, event or counters, or a warning for a
# duplicate the fabric could not copy is a second recovery path growing
# back.
second_recovery() {
  grep -nF -e 'with_reliable' -e 'fir_timeout' -e 'FirTimer' -e 'FirTimeout' \
    -e 'DupCloneFailed' -e 'WarningKind' -e 'fault_dup_unclonable' -e 'fir.reissued' "$@"
}
if second_recovery -r crates tests examples; then
  echo "ci: a second recovery path for lost packets"; exit 1
fi
# The gate must catch a planted line for each name.
planted="$(mktemp)"
for line in '    let plan = FaultPlan::chaos(0.1).with_reliable(false);' \
            '    pub fir_timeout: VirtualDuration,' \
            '    FirTimer { key: AddrKey },' \
            '            KernelEvent::FirTimeout { .. } => "FirTimeout",' \
            'pub use sim::{Admitted, DupCloneFailed, Fate};' \
            '    pub kind: WarningKind,' \
            '        FaultDupUnclonable => "net.fault_dup_unclonable",' \
            '        FirReissued => "fir.reissued",'; do
  echo "$line" >"$planted"
  second_recovery "$planted" >/dev/null || { echo "ci: the one-recovery-path gate is inert"; rm -f "$planted"; exit 1; }
done
rm -f "$planted"

echo "== README.md and DESIGN.md name only crates/ paths that exist =="
# Every backticked or linked crates/... path (globs allowed, a :line
# suffix ignored) must be in the tree. EXPERIMENTS.md is history and is
# not scanned.
stale=0
while read -r path; do
  compgen -G "${path%%:*}" >/dev/null || { echo "ci: docs name $path, which does not exist"; stale=1; }
done < <(grep -oh -e '`crates/[^` ]*`' -e '](crates/[^)]*)' README.md DESIGN.md | tr -d '`]()' | sort -u)
[ "$stale" = 0 ] || exit 1

echo "== README.md and DESIGN.md name only flags and harnesses that exist =="
# Every --flag token must occur in the sources that parse or pass it
# (crates/*/src, benchmark/, this script) or be one of cargo's own, and
# every word after `repro_all` or `-p hal-bench --` on a command line
# must be a row of the table (one crates/bench/src/harness/<name>.rs).
cargo_flags=" --release --bin --example --features --workspace --test "
while read -r flag; do
  [[ "$cargo_flags" == *" $flag "* ]] && continue
  grep -rqFw -e "$flag" crates/*/src benchmark ci.sh \
    || { echo "ci: docs name the flag $flag, which nothing parses"; stale=1; }
done < <(grep -ohE -e '--[a-z][a-z0-9-]*' README.md DESIGN.md | sort -u)
while read -r name; do
  [ -f "crates/bench/src/harness/$name.rs" ] \
    || { echo "ci: docs run the harness $name, which is not in crates/bench/src/harness/"; stale=1; }
done < <(grep -ohE '(repro_all|hal-bench --) +[a-z][a-z0-9_]*' README.md DESIGN.md | awk '{print $NF}' | sort -u)
[ "$stale" = 0 ] || exit 1

echo "== README.md and DESIGN.md name only counters that exist =="
# Every name a report can carry is declared once, in a counters! table:
# hal_kernel::{Counter, Folded} and hal_am::NetCounter. A backquoted dotted
# token whose first segment begins some declared name is a counter token
# (file names such as `trace.rs` are not); each of its {a,b} expansions
# must be a declared name, or match one as a glob when it holds a `*`.
declared="$(sed -n '/counters! {/,/^}/p' crates/kernel/src/metrics.rs crates/am/src/sim.rs \
  | grep -oE '=> "[a-z0-9_.]+"' | cut -d'"' -f2 | sort -u)"
prefixes=" $(cut -d. -f1 <<<"$declared" | sort -u | tr '\n' ' ')"
# Reads doc text, prints each counter form that names nothing declared.
undeclared_counters() {
  local token form name
  set -f
  while read -r token; do
    [[ "$prefixes" == *" ${token%%.*} "* ]] || continue
    for form in $(eval "echo $token"); do
      while read -r name; do [[ "$name" == $form ]] && continue 2; done <<<"$declared"
      echo "$form"
    done
  done < <(grep -oE '`[a-z_]+\.[a-z0-9_.{},*]+`' | tr -d '`' | grep -vE '\.(rs|sh|md|json|txt|toml)$' | sort -u)
  set +f
}
missing="$(cat README.md DESIGN.md | undeclared_counters)"
[ -z "$missing" ] || { echo "ci: docs name counters no table declares:" $missing; exit 1; }
# The gate must catch a misspelling, inside a brace list too.
[ "$(echo '`rel.retransmitz` `live.wake_{job,nap}`' | undeclared_counters | tr '\n' ' ')" \
  = "live.wake_nap rel.retransmitz " ] || { echo "ci: the counter-name gate is inert"; exit 1; }

echo "== cargo clippy pedantic (kernel + check + frontend + model) =="
# The protocol-critical crates additionally hold a pedantic bar. The
# allow list below is the accepted legacy noise (cast styles, must_use
# candidates, doc completeness); anything pedantic outside it fails.
cargo clippy -p hal-kernel -p hal-check -p hal-frontend -p hal-model \
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
# doorbell program under `--features model`, which drives the shipped
# Doorbell (clean under exploration; both seeded doorbell bugs must be
# *found*, trace included) — see DESIGN.md §14.
cargo test -q -p hal-model
cargo test -q -p hal-kernel --features model --test model_tests

echo "== tsan smoke (optional: nightly + rust-src) =="
# ThreadSanitizer over the kernel's real threaded tests catches what the
# model explorer can't reach (std internals, the full live runtime). It
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

echo "== chaos smoke =="
# The chaos harness asserts exactly-once delivery under seeded faults
# internally, and --check runs hal-check over every chase's trace; a
# violation or a DIRTY verdict exits nonzero. Run from a scratch dir so
# quick runs don't clobber committed results/.
repo_root="$PWD"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
mkdir -p "$smoke_dir/results"
(cd "$smoke_dir" && "$repo_root/target/release/repro_all" chaos_delivery --quick --check >/dev/null 2>&1) \
  || { echo "ci: chaos_delivery failed"; exit 1; }
echo "   chaos_delivery: exactly-once under faults, hal-check CLEAN"

echo "== spans/metrics smoke (table4_fib --spans --metrics) =="
# The observability exports are derived from virtual-time facts only,
# and the in-process assert guarantees the critical path never exceeds
# the makespan. Both artifacts must exist and carry their payload
# sections.
(cd "$smoke_dir" && "$repo_root/target/release/repro_all" table4_fib --quick --spans --metrics \
   >/dev/null 2>&1) \
  || { echo "ci: table4_fib --spans --metrics failed"; exit 1; }
for f in SPANS_table4_fib.json METRICS_table4_fib.json; do
  [ -s "$smoke_dir/results/$f" ] || { echo "ci: $f missing/empty"; exit 1; }
done
grep -q '"critical_path"' "$smoke_dir/results/SPANS_table4_fib.json" \
  || { echo "ci: SPANS_table4_fib.json has no critical_path section"; exit 1; }
grep -q '"samples"' "$smoke_dir/results/METRICS_table4_fib.json" \
  || { echo "ci: METRICS_table4_fib.json has no timeseries samples"; exit 1; }
echo "   table4_fib: spans+metrics present"

echo "== metrics schema: live document == sim document (table4_fib --metrics --backend=live) =="
# One registry, one document shape: the same harness on the live backend
# must write a METRICS_ file with the sim file's key set and sample
# fields. The key pattern skips the dotted names inside "counters"
# (backend-specific by design). No key is exempt: both backends speak
# the fault-free protocol, so a reliable-link record ("links" entries
# with peer/retransmits/acks) on either side fails here.
mkdir -p "$smoke_dir/live/results"
(cd "$smoke_dir/live" && "$repo_root/target/release/repro_all" table4_fib --quick --metrics --backend=live \
   >/dev/null 2>&1) \
  || { echo "ci: table4_fib --metrics --backend=live failed"; exit 1; }
metrics_schema() {
  grep -o '"[A-Za-z_]*":' "$1" | sort -u
  grep '"sample_fields"' "$1" | sort -u
}
diff <(metrics_schema "$smoke_dir/results/METRICS_table4_fib.json") \
     <(metrics_schema "$smoke_dir/live/results/METRICS_table4_fib.json") \
  || { echo "ci: live METRICS_ schema differs from sim's"; exit 1; }
echo "   METRICS_table4_fib.json: live and sim documents have one key set and one sample_fields line"

echo "== command-line refusals (exit 2: live on a SimMachine harness, a misspelt flag) =="
# --backend=live means something only for rows written against Machine;
# the others must refuse it rather than run on the simulator and tag the
# artifact "live". A switch the parse does not know must not run either.
for refused in "table2_primitives --backend=live" "table4_fib --quick --metrcs"; do
  rc=0
  # shellcheck disable=SC2086
  (cd "$smoke_dir/live" && "$repo_root/target/release/repro_all" $refused >/dev/null 2>&1) || rc=$?
  [ "$rc" = 2 ] || { echo "ci: repro_all $refused exited $rc, expected 2"; exit 1; }
done
echo "   repro_all: both refused with exit 2"

echo "== results gate (repro_all --check --lint --spans --metrics + hal-serve on sim, cmp vs results/) =="
# The full sweep from an empty directory: every harness under the
# hal-check protocol invariant checker AND the hal-lint static protocol
# analyzer — repro_all runs each harness once in its own process, fails
# if any verdict is dirty, and writes a manifest of what it wrote. Nothing it writes depends
# on the host clock, so every file must be byte-identical to the
# committed results/ — a difference is a change in simulation semantics
# (or a stale results/), never noise. Host time is benchmark/'s job.
# `./ci.sh --update-results` copies the sweep over results/ instead.
sweep_dir="$smoke_dir/sweep"
mkdir -p "$sweep_dir"
(cd "$sweep_dir" && "$repo_root/target/release/repro_all" --check --lint --spans --metrics 2>&1 | tail -n 20) \
  || { echo "ci: protocol checker sweep failed"; exit 1; }
grep -q '"clean": true' "$sweep_dir/results/CHECK_repro_all.json" \
  || { echo "ci: CHECK_repro_all.json is not clean"; exit 1; }
grep -q '"clean": true' "$sweep_dir/results/LINT_repro_all.json" \
  || { echo "ci: LINT_repro_all.json is not clean"; exit 1; }
grep -q 'SPANS_table5_matmul.json' "$sweep_dir/results/MANIFEST_repro_all.json" \
  || { echo "ci: MANIFEST_repro_all.json is missing span artifacts"; exit 1; }
echo "   repro_all --check --lint --spans --metrics: CLEAN"
# hal-serve on the simulator is a pure function of its flags too, so its
# artifact is swept and compared like the rest. These are the flags
# README prints.
(cd "$sweep_dir" && "$repo_root/target/release/hal-serve" \
   --backend=sim --rate=500 --requests=1000 --nodes=4 --stages=3 >/dev/null 2>&1) \
  || { echo "ci: hal-serve --backend=sim failed (SLO miss)"; exit 1; }
"$repo_root/target/release/hal-serve" --verify "$sweep_dir/results/SERVE_pipeline.json" >/dev/null \
  || { echo "ci: SERVE_pipeline.json failed artifact verification"; exit 1; }

# results_match <committed> <fresh>: every fresh file is byte-equal to its
# committed twin, and no committed file lacks a fresh one.
results_match() {
  local rc=0 f name
  for f in "$2"/*; do
    name="$(basename "$f")"
    cmp "$1/$name" "$f" || rc=1
  done
  for f in "$1"/*; do
    name="$(basename "$f")"
    [ -e "$2/$name" ] || { echo "ci: $1/$name is committed but the sweep did not write it"; rc=1; }
  done
  return $rc
}

if [ "${1:-}" = "--update-results" ]; then
  find results -maxdepth 1 -type f -delete
  cp "$sweep_dir"/results/* results/
  echo "   results/ regenerated from the sweep — review and commit"
else
  results_match results "$sweep_dir/results" \
    || { echo "ci: committed results/ differ from a fresh sweep (./ci.sh --update-results regenerates them)"; exit 1; }
  # The gate must also FAIL when a committed file disagrees: flip one
  # digit in a copy of one file of each kind and require a nonzero exit.
  mkdir -p "$smoke_dir/doctored"
  cp results/* "$smoke_dir/doctored/"
  for doctored in METRICS_table4_fib.json BENCH_fig3_delivery.json table3_invocation.txt \
                  SERVE_pipeline.json; do
    sed -i '0,/[0-8]/s/[0-8]/9/' "$smoke_dir/doctored/$doctored"
    if results_match "$smoke_dir/doctored" "$sweep_dir/results" >/dev/null 2>&1; then
      echo "ci: the results gate passed on a doctored $doctored — the gate is inert"
      exit 1
    fi
    cp "results/$doctored" "$smoke_dir/doctored/"
  done
  echo "   results gate: $(ls "$sweep_dir/results" | wc -l) files byte-identical to results/, doctored copies caught"
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
