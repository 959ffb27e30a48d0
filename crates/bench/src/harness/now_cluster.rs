//! Extension experiment: the same runtime on a network of workstations.
//!
//! The paper's conclusions (§9): "networks of workstations with fast
//! interconnect network have drawn more and more attention as the
//! potential work force for high performance concurrent computing …
//! We are investigating ways to reconcile such hardware platforms and
//! our runtime system." This harness runs the evaluation workloads on a
//! NOW-calibrated link model (~20x the CM-5's latency, 1/3 bandwidth)
//! and shows which algorithmic structures tolerate the change: the
//! pipelined, locally synchronized programs degrade gracefully; the
//! globally synchronized ones pay the latency on every iteration.

use hal_am::LinkModel;
use crate::out::Session;
use hal_workloads::cholesky::{self, CholeskyConfig, Variant};
use hal_workloads::matmul::{self, MatmulConfig};

fn chol(s: &mut Session, link: LinkModel, name: &str, variant: Variant) -> f64 {
    let m = s.machine(8).seed(4).link(link).build().unwrap();
    let label = format!("cholesky n=96 {variant:?} {name}");
    let cfg = CholeskyConfig {
        n: 96,
        variant,
        per_flop_ns: 140,
        seed: 21,
    };
    let (_, r) = s.recorded(label, cholesky::run_sim(m, cfg, false));
    r.makespan.as_secs_f64() * 1e3
}

fn mm(s: &mut Session, link: LinkModel, name: &str) -> f64 {
    let m = s.machine(16).seed(4).link(link).build().unwrap();
    let label = format!("matmul 256 p=16 {name}");
    let cfg = MatmulConfig {
        grid: 4,
        block: 64,
        per_flop_ns: 135,
        seed_a: 5,
        seed_b: 6,
    };
    let (_, r) = s.recorded(label, matmul::run_sim(m, cfg, false));
    r.makespan.as_secs_f64() * 1e3
}

/// One table row: `run` on the CM-5 link model, then on the NOW one.
fn compare(s: &mut Session, name: &str, run: impl Fn(&mut Session, LinkModel, &str) -> f64) {
    let (cm5, now) = (run(s, LinkModel::cm5(), "cm5"), run(s, LinkModel::now_cluster(), "now"));
    s.row(&[&name, &format!("{cm5:.2}"), &format!("{now:.2}"), &format!("{:.2}x", now / cm5)]);
}

/// Print the CM-5 vs NOW table.
pub fn run(s: &mut Session) {
    s.note_protocol(
        &cholesky::ChMsg::DECL,
        &["chol-column", "chol-coordinator", "chol-collector"],
    );
    s.note_protocol(&matmul::MmMsg::DECL, &["mm-member", "mm-collector"]);
    s.banner(
        "Extension: CM-5 fabric vs network-of-workstations link model (virtual ms)",
        "same kernels, same programs; only the interconnect calibration changes",
    );
    s.header(&["workload", "CM-5", "NOW", "slowdown"], &[28, 10, 10, 8]);
    compare(s, "cholesky BP (pipelined)", |s, link, net| chol(s, link, net, Variant::BP));
    compare(s, "cholesky Bcast (global)", |s, link, net| chol(s, link, net, Variant::Bcast));
    compare(s, "cholesky Seq (global)", |s, link, net| chol(s, link, net, Variant::Seq));
    compare(s, "matmul 256^2 on 16 (systolic)", mm);
    s.say(
        "\nshape: the communication-intensive factorization pays roughly the\n\
         bandwidth ratio (~3x) regardless of variant — with the pipelined BP\n\
         still fastest in absolute terms — while the compute-dense systolic\n\
         multiply barely notices the commodity network. Location-transparent\n\
         programs carry over unchanged; only the cost calibration moved.",
    );
}
