//! Column-oriented Cholesky decomposition — the Table 1 workload.
//!
//! Table 1 compares four parallel implementations of the same
//! factorization:
//!
//! * **BP** — block column mapping, *pipelined*: "start the execution of
//!   iteration i+1 before the execution of iteration i has completed by
//!   only using local synchronization";
//! * **CP** — identical but with *cyclic* column mapping;
//! * **Seq** — global synchronization: iteration i completes before
//!   iteration i+1 starts, updates sent point-to-point;
//! * **Bcast** — global synchronization with spanning-tree broadcast of
//!   each finished column.
//!
//! One actor per matrix column, created as a `grpnew` group so the
//! mapping (block vs cyclic) is a one-argument change — exactly the
//! paper's "implementations are identical except for the mapping".
//! Column payloads are kilobyte-scale `Bytes`, so every update rides the
//! three-phase bulk protocol; the pipelined variants are the workload
//! where §6.5's minimal flow control earns its keep.

use hal::messages;
use hal::prelude::*;
use hal_baselines::linalg;
use hal_des::VirtualDuration;

messages! {
    /// Cholesky protocol.
    pub enum ChMsg {
        /// Kick off (broadcast to the group; only column 0 acts — and,
        /// in the global variants, the coordinator drives instead).
        Start {} = 0 => [ChMsg],
        /// Finished column `k` (rows k..n), to be applied as a cmod.
        Update { k: i64, data: hal_am::Bytes } = 1 => [ChMsg],
        /// Global variants: the coordinator tells column `j` to cdiv.
        DoColumn { j: i64 } = 2 => [ChMsg],
        /// Global variants: a column acknowledges applying an update.
        Ack {} = 3 => [ChMsg],
        /// A factored column for the collector (sink: reports only).
        Result { j: i64, data: hal_am::Bytes } = 4,
    }
}

/// Synchronization discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sync {
    /// Local synchronization only: fully pipelined (BP/CP).
    Pipelined,
    /// Coordinator-gated iterations, point-to-point updates (Seq).
    GlobalSeq,
    /// Coordinator-gated iterations, broadcast updates (Bcast).
    GlobalBcast,
}

impl Sync {
    fn encode(self) -> i64 {
        match self {
            Sync::Pipelined => 0,
            Sync::GlobalSeq => 1,
            Sync::GlobalBcast => 2,
        }
    }
    fn decode(v: i64) -> Self {
        match v {
            0 => Sync::Pipelined,
            1 => Sync::GlobalSeq,
            2 => Sync::GlobalBcast,
            other => panic!("bad sync code {other}"),
        }
    }
}

/// The four Table 1 variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Block mapping, pipelined.
    BP,
    /// Cyclic mapping, pipelined.
    CP,
    /// Global synchronization, point-to-point.
    Seq,
    /// Global synchronization, broadcast.
    Bcast,
}

impl Variant {
    /// The variant's column mapping.
    pub fn mapping(self) -> Mapping {
        match self {
            Variant::CP => Mapping::Cyclic,
            // The globally synchronized baselines use block mapping like
            // BP; only CP differs.
            _ => Mapping::Block,
        }
    }

    /// The variant's synchronization discipline.
    pub fn sync(self) -> Sync {
        match self {
            Variant::BP | Variant::CP => Sync::Pipelined,
            Variant::Seq => Sync::GlobalSeq,
            Variant::Bcast => Sync::GlobalBcast,
        }
    }

    /// All four, in Table 1 column order.
    pub fn all() -> [Variant; 4] {
        [Variant::BP, Variant::CP, Variant::Seq, Variant::Bcast]
    }
}

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct CholeskyConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Which Table 1 variant to run.
    pub variant: Variant,
    /// Virtual cost per floating-point operation.
    pub per_flop_ns: u64,
    /// Matrix seed.
    pub seed: u64,
}

struct Column {
    j: usize,
    n: usize,
    group: GroupId,
    collector: MailAddr,
    coordinator: Option<MailAddr>,
    sync: Sync,
    per_flop_ns: u64,
    /// Rows j..n of column j (the only part the factorization touches).
    col: Vec<f64>,
    applied: usize,
    factored: bool,
}

impl Column {
    /// Apply `cmod(j, k)`: subtract the outer-product contribution of
    /// finished column k. `data` is rows k..n of L's column k, packed;
    /// it is read where it lies.
    fn cmod(&mut self, ctx: &mut Ctx<'_>, k: usize, data: &[u8]) {
        debug_assert!(k < self.j);
        // Global row j + i sits at payload index (j + i) - k.
        let lk = crate::f64s(data).skip(self.j - k);
        let rows = self.n - self.j;
        assert_eq!(lk.len(), rows, "column {k} is not rows {k}..{}", self.n);
        let ljk = lk.clone().next().expect("rows > 0");
        ctx.charge(VirtualDuration::from_nanos(2 * rows as u64 * self.per_flop_ns));
        for (c, lik) in self.col.iter_mut().zip(lk) {
            *c -= lik * ljk;
        }
        self.applied += 1;
    }

    /// `cdiv(j)`: scale by the pivot square root, publish the column.
    fn cdiv(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert!(!self.factored && self.applied == self.j);
        self.factored = true;
        let rows = self.n - self.j;
        ctx.charge(VirtualDuration::from_nanos(
            (rows as u64 + 16) * self.per_flop_ns,
        ));
        let pivot = self.col[0];
        assert!(pivot > 0.0, "lost positive definiteness at column {}", self.j);
        let d = pivot.sqrt();
        self.col[0] = d;
        for v in &mut self.col[1..] {
            *v /= d;
        }
        let data = crate::pack_f64(&self.col);
        // Publish the finished column to later columns. The pipelined
        // variants and Bcast distribute over the spanning tree (one
        // network traversal); Seq sends point-to-point per column — the
        // naive flat fan-out whose sender-side serialization Table 1
        // penalizes. What makes BP/CP fast is that multiple column
        // broadcasts are in flight at once (local synchronization only),
        // while Bcast's coordinator admits one iteration at a time.
        match self.sync {
            Sync::Pipelined | Sync::GlobalBcast => {
                let (sel, args) = ChMsg::Update {
                    k: self.j as i64,
                    data: data.clone(),
                }
                .encode();
                ctx.broadcast(self.group, sel, args);
            }
            Sync::GlobalSeq => {
                for k in (self.j + 1)..self.n {
                    let (sel, args) = ChMsg::Update {
                        k: self.j as i64,
                        data: data.clone(),
                    }
                    .encode();
                    ctx.send_member(self.group, k as u32, sel, args);
                }
            }
        }
        let (sel, args) = ChMsg::Result {
            j: self.j as i64,
            data,
        }
        .encode();
        ctx.send(self.collector, sel, args);
    }
}

impl Behavior for Column {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match ChMsg::take(msg) {
            ChMsg::Start {} => {
                // Pipelined: column 0 needs no updates, so it starts the
                // wavefront. (Global variants are driven by DoColumn.)
                if self.sync == Sync::Pipelined && self.j == 0 && !self.factored {
                    self.cdiv(ctx);
                }
            }
            ChMsg::Update { k, data } => {
                let k = k as usize;
                if k >= self.j {
                    // Broadcast variants deliver every column to every
                    // member; columns ≤ j ignore them (incl. self-copy).
                    return;
                }
                if self.factored {
                    return; // stale broadcast copy
                }
                self.cmod(ctx, k, &data);
                match self.sync {
                    Sync::Pipelined => {
                        if self.applied == self.j {
                            self.cdiv(ctx);
                        }
                    }
                    Sync::GlobalSeq | Sync::GlobalBcast => {
                        let coord = self.coordinator.expect("global sync has a coordinator");
                        let (sel, args) = ChMsg::Ack {}.encode();
                        ctx.send(coord, sel, args);
                    }
                }
            }
            ChMsg::DoColumn { j } => {
                assert_eq!(j as usize, self.j, "DoColumn routed to wrong column");
                assert_eq!(
                    self.applied, self.j,
                    "global ordering violated: column {} told to cdiv early",
                    self.j
                );
                self.cdiv(ctx);
            }
            _ => unreachable!("column received a coordinator/collector message"),
        }
    }

    fn name(&self) -> &'static str {
        "chol-column"
    }
}

fn make_column(args: &[Value]) -> Box<dyn Behavior> {
    let n = args[0].as_int() as usize;
    let seed = args[1].as_int() as u64;
    let per_flop_ns = args[2].as_int() as u64;
    let sync = Sync::decode(args[3].as_int());
    let collector = args[4].as_addr();
    let coordinator = match &args[5] {
        Value::Addr(a) => Some(*a),
        _ => None,
    };
    let group = args[6].as_group();
    let j = args[7].as_int() as usize;
    // args[8] is the member count (== n).
    Box::new(Column {
        j,
        n,
        group,
        collector,
        coordinator,
        sync,
        per_flop_ns,
        col: linalg::spd_column_tail(n, seed, j),
        applied: 0,
        factored: false,
    })
}

/// Global-sync coordinator: serializes iterations.
struct Coordinator {
    n: usize,
    group: GroupId,
    j: usize,
    acks_needed: usize,
}

impl Coordinator {
    fn kick(&mut self, ctx: &mut Ctx<'_>) {
        // Tell column j to cdiv; expect acks from columns j+1..n.
        self.acks_needed = self.n - self.j - 1;
        let (sel, args) = ChMsg::DoColumn { j: self.j as i64 }.encode();
        ctx.send_member(self.group, self.j as u32, sel, args);
    }
}

impl Behavior for Coordinator {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            // Start carries the group id (minted after the coordinator
            // was created, so it arrives by message).
            0 => {
                self.group = msg.args[0].as_group();
                self.kick(ctx);
            }
            // Ack
            3 => {
                self.acks_needed -= 1;
                if self.acks_needed == 0 {
                    self.j += 1;
                    if self.j < self.n {
                        self.kick(ctx);
                    }
                    // The collector stops the machine once all Results
                    // arrive (the last column acks nobody).
                }
            }
            other => unreachable!("coordinator received selector {other}"),
        }
    }

    fn name(&self) -> &'static str {
        "chol-coordinator"
    }
}

/// Collects factored columns; reports the Frobenius norm of L (as
/// `"chol_fro"`), optionally each column, then stops the machine.
struct Collector {
    n: usize,
    received: usize,
    fro: f64,
    publish: bool,
    stop_when_done: bool,
}

impl Behavior for Collector {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let ChMsg::Result { j, data } = ChMsg::take(msg) else {
            unreachable!("collector only receives Result");
        };
        self.received += 1;
        self.fro += crate::f64s(&data).map(|x| x * x).sum::<f64>();
        if self.publish {
            ctx.report(format!("l_{j}"), Value::Bytes(data));
        }
        if self.received == self.n {
            ctx.report("chol_fro", Value::Float(self.fro.sqrt()));
            ctx.report("chol_done_at_ns", Value::Int(ctx.now().as_nanos() as i64));
            if self.stop_when_done {
                ctx.stop();
            }
        }
    }

    fn name(&self) -> &'static str {
        "chol-collector"
    }
}

/// Register the column behavior.
pub fn register(program: &mut Program) -> BehaviorId {
    program.behavior("chol-column", make_column)
}

/// Bootstrap a Cholesky run; `publish` additionally reports every column
/// of L for validation.
pub fn bootstrap(ctx: &mut Ctx<'_>, behavior: BehaviorId, cfg: CholeskyConfig, publish: bool) {
    bootstrap_opts(ctx, behavior, cfg, publish, true);
}

/// Like [`bootstrap`], optionally without stopping the machine (for
/// multi-program runs).
pub fn bootstrap_opts(
    ctx: &mut Ctx<'_>,
    behavior: BehaviorId,
    cfg: CholeskyConfig,
    publish: bool,
    stop_when_done: bool,
) {
    let sync = cfg.variant.sync();
    let collector = ctx.create_local(Box::new(Collector {
        n: cfg.n,
        received: 0,
        fro: 0.0,
        publish,
        stop_when_done,
    }));
    // The members need the coordinator's address at construction, and
    // the coordinator needs the group id — so the coordinator is created
    // first and learns the group id from its Start message (no member
    // can ack before the coordinator's first DoColumn, so there is no
    // race).
    if sync != Sync::Pipelined {
        let coordinator = ctx.create_local(Box::new(Coordinator {
            n: cfg.n,
            group: GroupId(0), // patched by the Start handler
            j: 0,
            acks_needed: 0,
        }));
        let group = ctx.grpnew_mapped(
            behavior,
            cfg.n as u32,
            vec![
                Value::Int(cfg.n as i64),
                Value::Int(cfg.seed as i64),
                Value::Int(cfg.per_flop_ns as i64),
                Value::Int(sync.encode()),
                Value::Addr(collector),
                Value::Addr(coordinator),
            ],
            cfg.variant.mapping(),
        );
        // Patch the coordinator's group via a Start that carries it: we
        // extend Start for this purpose with a group argument.
        let (sel, _) = ChMsg::Start {}.encode();
        ctx.send(coordinator, sel, vec![Value::Group(group)]);
    } else {
        let group = ctx.grpnew_mapped(
            behavior,
            cfg.n as u32,
            vec![
                Value::Int(cfg.n as i64),
                Value::Int(cfg.seed as i64),
                Value::Int(cfg.per_flop_ns as i64),
                Value::Int(sync.encode()),
                Value::Addr(collector),
                Value::Int(0), // no coordinator
            ],
            cfg.variant.mapping(),
        );
        let (sel, args) = ChMsg::Start {}.encode();
        ctx.broadcast(group, sel, args);
    }
}

/// Run on a fresh machine for `machine.backend` (simulated by default,
/// live under `BackendKind::Live`); returns `(frobenius_norm_of_L,
/// report)`.
pub fn run_sim(machine: MachineConfig, cfg: CholeskyConfig, publish: bool) -> (f64, SimReport) {
    let mut program = Program::new();
    let id = register(&mut program);
    let report = hal::run(machine, program, |ctx| bootstrap(ctx, id, cfg, publish));
    let fro = report
        .value("chol_fro")
        .expect("cholesky did not complete")
        .as_float();
    (fro, report)
}

/// Reassemble L (lower triangle, row-major full matrix) from a
/// `publish` report.
pub fn extract_l(report: &SimReport, n: usize) -> Vec<f64> {
    let mut l = vec![0.0; n * n];
    for j in 0..n {
        let data = report
            .value(&format!("l_{j}"))
            .unwrap_or_else(|| panic!("missing column {j}"))
            .as_bytes();
        let col = crate::unpack_f64(&data);
        assert_eq!(col.len(), n - j);
        for (i, v) in col.iter().enumerate() {
            l[(j + i) * n + j] = *v;
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use hal_baselines::{cholesky_seq, random_spd};

    fn reference_l(n: usize, seed: u64) -> Vec<f64> {
        let mut a = random_spd(n, seed);
        cholesky_seq(&mut a, n);
        // Zero the upper triangle for comparison.
        for i in 0..n {
            for j in i + 1..n {
                a[i * n + j] = 0.0;
            }
        }
        a
    }

    fn check_variant(variant: Variant, n: usize, nodes: usize) {
        let cfg = CholeskyConfig {
            n,
            variant,
            per_flop_ns: 100,
            seed: 17,
        };
        let (_, report) = run_sim(MachineConfig::new(nodes), cfg, true);
        let l = extract_l(&report, n);
        let expect = reference_l(n, 17);
        let max = l
            .iter()
            .zip(&expect)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max < 1e-9, "{variant:?}: max error {max}");
    }

    #[test]
    fn bp_matches_reference() {
        check_variant(Variant::BP, 12, 4);
    }

    #[test]
    fn cp_matches_reference() {
        check_variant(Variant::CP, 12, 4);
    }

    #[test]
    fn seq_matches_reference() {
        check_variant(Variant::Seq, 12, 4);
    }

    #[test]
    fn bcast_matches_reference() {
        check_variant(Variant::Bcast, 12, 4);
    }

    #[test]
    fn single_node_works() {
        check_variant(Variant::BP, 8, 1);
    }

    #[test]
    fn pipelined_beats_global_sync() {
        // The Table 1 headline: local synchronization (BP/CP) outperforms
        // completing each iteration globally (Seq/Bcast).
        let mk = |variant| CholeskyConfig {
            n: 32,
            variant,
            per_flop_ns: 100,
            seed: 3,
        };
        let bp = run_sim(MachineConfig::new(4), mk(Variant::BP), false).1;
        let seq = run_sim(MachineConfig::new(4), mk(Variant::Seq), false).1;
        assert!(
            bp.makespan < seq.makespan,
            "BP {} should beat Seq {}",
            bp.makespan,
            seq.makespan
        );
    }
}
