//! The four sim-backend workloads. Each is single-threaded
//! (`parallelism(1)`) and deterministic, so a repetition's host wall is
//! the simulator's own CPU cost and its counts repeat exactly.

use crate::chase;
use crate::spans::Recorder;
use crate::workload::{derive, Batch};
use hal::prelude::*;
use hal_workloads::cholesky::{self, CholeskyConfig, Variant};
use hal_workloads::fib::{self, FibConfig, Placement};

const NODES: usize = 8;

fn machine(seed: u64) -> MachineConfigBuilder {
    MachineConfig::builder(NODES)
        .seed(derive(seed, 0))
        .parallelism(1)
}

/// `sim_fib` and `sim_fib_lossy`: the fib call tree, one actor per node
/// of the tree.
pub struct Fib {
    cfg: MachineConfig,
    fib: FibConfig,
    expected: u64,
    /// Whether the run must (lossy) or must not (clean) retransmit.
    lossy: bool,
}

impl Fib {
    /// `fib(20)` created locally and spread by the stealing balancer:
    /// creation, join and steal bound; the transport sees steals only.
    pub fn clean(seed: u64) -> Self {
        let fib = FibConfig {
            n: 20,
            grain: 0,
            placement: Placement::Local,
        };
        Fib {
            cfg: machine(seed)
                .load_balancing(true)
                .build()
                .expect("valid sim config"),
            fib,
            expected: hal_baselines::fib_iter(fib.n),
            lossy: false,
        }
    }

    /// `fib(15)` with every child placed on a random node over links
    /// that drop 2 % and duplicate 1 % of packets: every message crosses
    /// the reliable layer's seq/ack/holdback/retransmit code.
    pub fn lossy(seed: u64) -> Self {
        let fib = FibConfig {
            n: 15,
            grain: 0,
            placement: Placement::Random,
        };
        Fib {
            cfg: machine(seed)
                .load_balancing(true)
                .faults(FaultPlan {
                    drop: 0.02,
                    duplicate: 0.01,
                    ..FaultPlan::none()
                })
                .build()
                .expect("valid sim config"),
            fib,
            expected: hal_baselines::fib_iter(fib.n),
            lossy: true,
        }
    }
}

impl Batch for Fib {
    fn stage(&self, rec: &mut Recorder) -> Machine {
        let s = rec.begin("kernel.build");
        let mut program = Program::new();
        let id = fib::register(&mut program);
        let mut m = Machine::from_config(self.cfg.clone(), program.build());
        rec.end(s);
        let s = rec.begin("kernel.bootstrap");
        m.with_ctx(0, |ctx| fib::bootstrap(ctx, id, self.fib));
        rec.end(s);
        m
    }

    fn check(&self, r: &SimReport) -> (u64, Vec<String>) {
        let mut errors = Vec::new();
        match r.value("fib") {
            Some(v) if v.as_int() as u64 == self.expected => {}
            other => errors.push(format!("fib = {other:?}, expected {}", self.expected)),
        }
        let retx = r.stats.get("rel.retransmits");
        if self.lossy && retx == 0 {
            errors.push("lossy links produced no retransmit".into());
        }
        if !self.lossy && retx != 0 {
            errors.push(format!("clean links retransmitted {retx} packets"));
        }
        (r.events, errors)
    }
}

/// `sim_cholesky`: column-oriented Cholesky, pipelined block-mapped
/// variant — few actors, large `Bytes` payloads, group broadcast, bulk
/// protocol and flow control.
pub struct Cholesky {
    cfg: MachineConfig,
    chol: CholeskyConfig,
    /// Frobenius norm of the reference factor of the same matrix.
    expected_fro: f64,
}

impl Cholesky {
    /// Generate the seeded matrix and factor it sequentially once; every
    /// repetition's result is compared against that.
    pub fn new(seed: u64) -> Self {
        let chol = CholeskyConfig {
            n: 192,
            variant: Variant::BP,
            per_flop_ns: 100,
            seed: derive(seed, 1) >> 1, // travels as a non-negative i64
        };
        let n = chol.n;
        let mut a = hal_baselines::random_spd(n, chol.seed);
        hal_baselines::cholesky_seq(&mut a, n);
        let mut sq = 0.0;
        for i in 0..n {
            for j in 0..=i {
                sq += a[i * n + j] * a[i * n + j];
            }
        }
        Cholesky {
            cfg: machine(seed).build().expect("valid sim config"),
            chol,
            expected_fro: sq.sqrt(),
        }
    }
}

impl Batch for Cholesky {
    fn stage(&self, rec: &mut Recorder) -> Machine {
        let s = rec.begin("kernel.build");
        let mut program = Program::new();
        let id = cholesky::register(&mut program);
        let mut m = Machine::from_config(self.cfg.clone(), program.build());
        rec.end(s);
        let s = rec.begin("kernel.bootstrap");
        m.with_ctx(0, |ctx| cholesky::bootstrap(ctx, id, self.chol, false));
        rec.end(s);
        m
    }

    fn check(&self, r: &SimReport) -> (u64, Vec<String>) {
        let mut errors = Vec::new();
        match r.value("chol_fro") {
            Some(v) if ((v.as_float() - self.expected_fro) / self.expected_fro).abs() <= 1e-9 => {}
            other => errors.push(format!(
                "chol_fro = {other:?}, reference {}",
                self.expected_fro
            )),
        }
        (r.events, errors)
    }
}

/// `sim_chase`: one nomad migrating `HOPS` times while `SPRAYERS`
/// sprayers probe its stale address.
pub struct Chase {
    cfg: MachineConfig,
    hops: Vec<u16>,
    sprayers: Vec<u16>,
}

impl Chase {
    /// Migrations per repetition.
    pub const HOPS: usize = 3_000;
    /// Call/return probes each sprayer completes.
    pub const PROBES: i64 = 1_500;
    /// Sprayer count; they sit on nodes `1..=SPRAYERS`.
    pub const SPRAYERS: u16 = 6;

    /// Draw the hop order from the seed: each hop goes to a uniformly
    /// chosen node other than the current one.
    pub fn new(seed: u64) -> Self {
        let mut state = derive(seed, 2) | 1;
        let mut at = 0u16;
        let hops = (0..Self::HOPS)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let step = 1 + (state >> 33) % (NODES as u64 - 1);
                at = ((u64::from(at) + step) % NODES as u64) as u16;
                at
            })
            .collect();
        Chase {
            cfg: machine(seed).build().expect("valid sim config"),
            hops,
            sprayers: (1..=Self::SPRAYERS).collect(),
        }
    }
}

impl Batch for Chase {
    fn stage(&self, rec: &mut Recorder) -> Machine {
        let s = rec.begin("kernel.build");
        let mut m = Machine::from_config(self.cfg.clone(), Program::new().build());
        rec.end(s);
        let s = rec.begin("kernel.bootstrap");
        chase::bootstrap(&mut m, &self.hops, &self.sprayers, Self::PROBES);
        rec.end(s);
        m
    }

    fn check(&self, r: &SimReport) -> (u64, Vec<String>) {
        let mut errors = Vec::new();
        let total = Self::PROBES * i64::from(Self::SPRAYERS);
        for key in ["chase_replies", "chase_served"] {
            match r.value(key) {
                Some(v) if v.as_int() == total => {}
                other => errors.push(format!("{key} = {other:?}, expected exactly {total}")),
            }
        }
        let out = r.stats.get("migrations.out");
        if out != Self::HOPS as u64 {
            errors.push(format!("migrations.out = {out}, expected {}", Self::HOPS));
        }
        for key in ["fir.sent", "deliver.forwarded"] {
            if r.stats.get(key) == 0 {
                errors.push(format!("{key} = 0: nothing was chased"));
            }
        }
        (r.events, errors)
    }
}
