//! The migration chase (Fig. 3, §4.3).
//!
//! Fig. 3 is the flowchart of the generic send: locality check from
//! local information, best-guess routing, FIR chases along forward
//! chains, duplicate-FIR suppression, and table repair along the chain.
//! The workload that exercises it: a *nomad* walks `chain` hops over
//! the partition while a *sprayer* on another node fires `probes`
//! messages at the address the nomad was created under. Every probe
//! must be delivered exactly once wherever the nomad happens to be; the
//! nomad reports each one under `"probe_delivered"` with its running
//! count, so the report's value sequence *is* the delivery order.
//!
//! The sprayer is the one registered behavior (`"spray"`); the nomad is
//! created locally by the bootstrap with its hop list in hand.

use hal::messages;
use hal::prelude::*;
use hal_kernel::NodeId;

messages! {
    /// The chase protocol.
    pub enum ChaseMsg {
        /// Nomad: take the next hop (sent to itself before each
        /// migration, so it chases its own move). Sprayer: fire.
        Walk {} = 0 => [ChaseMsg],
        /// One racing probe.
        Probe {} = 1,
    }
}

/// Chase parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChaseConfig {
    /// Hops the nomad walks: `1, 2, …, P-1, 1, …` from node 0 (needs two
    /// nodes unless zero).
    pub chain: usize,
    /// Probes the sprayer sends.
    pub probes: i64,
    /// Node the sprayer is created on.
    pub prober_node: NodeId,
    /// Stop the machine at the last probe instead of running to
    /// quiescence — the live backend has no quiescence detection.
    pub stop_after_last_probe: bool,
}

impl ChaseConfig {
    /// The set-up every Fig. 3 table and pinned test uses: the sprayer
    /// on node 4 (of 8), the machine run to quiescence.
    pub fn fig3(chain: usize, probes: i64) -> Self {
        ChaseConfig {
            chain,
            probes,
            prober_node: 4,
            stop_after_last_probe: false,
        }
    }
}

struct Nomad {
    hops: Vec<NodeId>,
    probes: i64,
    stop_at: Option<i64>,
}

impl Behavior for Nomad {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match ChaseMsg::take(msg) {
            ChaseMsg::Walk {} => {
                if let Some(next) = self.hops.pop() {
                    let me = ctx.me();
                    let (sel, args) = ChaseMsg::Walk {}.encode();
                    ctx.send(me, sel, args);
                    ctx.migrate(next);
                }
            }
            ChaseMsg::Probe {} => {
                self.probes += 1;
                ctx.report("probe_delivered", Value::Int(self.probes));
                if self.stop_at == Some(self.probes) {
                    ctx.stop();
                }
            }
        }
    }
}

struct Spray {
    target: MailAddr,
    n: i64,
}

impl Behavior for Spray {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        for _ in 0..self.n {
            let (sel, args) = ChaseMsg::Probe {}.encode();
            ctx.send(self.target, sel, args);
        }
    }
}

fn make_spray(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Spray {
        target: args[0].as_addr(),
        n: args[1].as_int(),
    })
}

/// Register the sprayer behavior.
pub fn register(program: &mut Program) -> BehaviorId {
    program.behavior("spray", make_spray)
}

/// Bootstrap from node 0: create the nomad here and start its walk,
/// then create the sprayer on `cfg.prober_node` and fire it.
pub fn bootstrap(ctx: &mut Ctx<'_>, spray: BehaviorId, cfg: ChaseConfig) {
    let p = ctx.nodes();
    let hops = (0..cfg.chain).rev().map(|i| ((i % (p - 1)) + 1) as NodeId).collect();
    let nomad = ctx.create_local(Box::new(Nomad {
        hops,
        probes: 0,
        stop_at: cfg.stop_after_last_probe.then_some(cfg.probes),
    }));
    let (sel, args) = ChaseMsg::Walk {}.encode();
    ctx.send(nomad, sel, args);
    let s = ctx.create_on(
        cfg.prober_node,
        spray,
        vec![Value::Addr(nomad), Value::Int(cfg.probes)],
    );
    let (sel, args) = ChaseMsg::Walk {}.encode();
    ctx.send(s, sel, args);
}

/// Run on a fresh machine for `machine.backend`; returns
/// `(probes delivered, report)`.
pub fn run_sim(machine: MachineConfig, cfg: ChaseConfig) -> (u64, SimReport) {
    let mut program = Program::new();
    let spray = register(&mut program);
    let report = hal::run(machine, program, |ctx| bootstrap(ctx, spray, cfg));
    let delivered = report.values("probe_delivered").len() as u64;
    (delivered, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The machine and chase `fig3_delivery` runs.
    fn fig3(chain: usize) -> (u64, SimReport) {
        run_sim(
            MachineConfig::builder(8).seed(5).build().unwrap(),
            ChaseConfig::fig3(chain, 20),
        )
    }

    #[test]
    fn every_probe_is_delivered_once_at_any_chain_length() {
        for chain in [0, 1, 8] {
            let (delivered, report) = fig3(chain);
            assert_eq!(delivered, 20, "chain {chain}");
            let seq: Vec<i64> = report
                .values("probe_delivered")
                .into_iter()
                .map(|v| v.as_int())
                .collect();
            assert_eq!(seq, (1..=20).collect::<Vec<_>>(), "chain {chain}");
            assert_eq!(report.stats.get("migrations.in"), chain as u64, "chain {chain}");
        }
    }

    #[test]
    fn eight_hops_cost_what_results_fig3_delivery_prints() {
        let (_, report) = fig3(8);
        let table = include_str!("../../../results/fig3_delivery.txt");
        let row = table
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|cells| cells.first() == Some(&"8") && cells.len() == 6)
            .expect("results/fig3_delivery.txt has an 8-hop row");
        assert_eq!(row[2], report.stats.get("fir.sent").to_string(), "FIRs");
        assert_eq!(row[4], report.stats.get("deliver.forwarded").to_string(), "forwards");
    }
}
