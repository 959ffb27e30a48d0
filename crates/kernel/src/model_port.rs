//! Model-checkable ports of the kernel's concurrent protocols, compiled
//! only under `--features model`.
//!
//! The programs are written against [`crate::sync`] — which, under this
//! feature, routes every primitive through the `hal-model` interleaving
//! explorer — and drive the *production* types: the real
//! [`SpinBarrier`], the real [`crate::boundary`] publish/gather/decide
//! code and the real [`Doorbell`], not re-implementations.
//!
//! # Oracle discipline
//!
//! Each program carries a mutex-protected oracle recording ground truth
//! (what was published, what was decided). The oracle is written *before*
//! the protocol step it describes and read *after* the step completes, so
//! its lock never supplies the happens-before edge the protocol itself is
//! supposed to establish: a shard records its probe, then publishes it,
//! then crosses the barrier — a reader that gathers a stale slot still
//! sees the true value in the oracle and the assertion fires. (The mutex
//! edge covers only the oracle entry, not the slot stores that follow it
//! in program order.)
//!
//! # Checked invariants
//!
//! Fused-boundary handshake ([`fused_boundary_program`]):
//! * **No lost publish across parity flips** — every gather observes the
//!   exact probes all shards published for that boundary.
//! * **Decision agreement** — all shards compute the same
//!   [`Decision`] at every boundary (this is what makes the elected
//!   replay exactly-once: the `me == 0` election is total only if every
//!   shard takes the `Coordinate` branch together).
//! * **Exactly-once replay** — the coordinated boundary's replay runs
//!   once per boundary.
//! * **No fuse over a parked arrival** — a `Fused { window }` decision
//!   implies the true minimum watermark is at or past the window end.
//! * **Termination** — no deadlock at the exit boundary (checked
//!   implicitly: a lost signal or diverged shard leaves threads blocked
//!   and the explorer reports the deadlock).
//!
//! Live lifecycle ([`live_lifecycle_program`]):
//! * **Bounded staging with backpressure** — jobs flow through a
//!   capacity-1 channel, FIFO, exactly once.
//! * **Flush ordering** — the stop flag set before the final send is
//!   visible to the consumer of that send (the channel's happens-before
//!   edge, exactly how [`crate::live`] sequences Flush against stop).
//! * **Exactly-once claim election** — two workers race a
//!   `Staged -> Running` CAS; precisely one wins and drives the job to
//!   `Done`.
//! * **Clean shutdown** — dropping the producer disconnects the consumer
//!   rather than deadlocking it.
//!
//! Live wake-up ([`doorbell_program`]):
//! * **No lost wake-up** — a node that parks *without a timeout* is woken
//!   by every enqueue that its re-check missed (checked as termination: a
//!   lost ring leaves the sleeper on `bell.cv` forever and the explorer
//!   reports the deadlock).
//! * **Exactly-once consumption** — each producer's item is taken once.
//! * **Honest tokens** — a wake names only reasons a producer rang.

use crate::boundary::{decide, Decision, Probe, View, WatermarkBoard, NONE_NS};
use crate::sync::{
    channel, thread, AtomicBool, AtomicU64, AtomicU8, BarrierBugs, Doorbell, Mutex, Ordering,
    SpinBarrier, RING_JOB, RING_PACKET,
};
use std::sync::Arc;

/// Window length used by the scripted boundary program.
pub const WINDOW_NS: u64 = 1_000;

/// Shards in the scripted boundary program.
pub const SHARDS: usize = 2;

/// Boundaries the scripted program walks through.
pub const BOUNDARIES: usize = 2;

/// Ground truth recorded around the protocol steps (see module docs for
/// why its lock cannot mask a protocol bug).
struct Oracle {
    /// `published[boundary][shard]` — (watermark, frontier) as handed to
    /// `publish`, recorded immediately *before* the slot stores.
    published: [[Option<(u64, u64)>; SHARDS]; BOUNDARIES],
    /// First decision recorded per boundary; later shards must agree.
    decisions: [Option<Decision>; BOUNDARIES],
    /// Replay executions per boundary (must be exactly one when
    /// coordinated).
    replays: [u32; BOUNDARIES],
}

/// The fused-boundary handshake over the production barrier and
/// watermark board, scripted so the clean protocol walks one coordinated
/// boundary and one exit boundary.
///
/// Shard 1's boundary-0 probe parks a watermark at 500 ns — inside the
/// first window — so the only correct decision is `Coordinate`; a stale
/// gather (the lost-publish bug) reads the slot's initial `NONE_NS`
/// instead and decides `Fused`, which the oracle assertions catch.
///
/// Run this under [`hal_model::explore`]; `bugs` seeds the barrier and
/// `spin` selects the spin-then-block or straight-to-condvar path.
pub fn fused_boundary_program(bugs: BarrierBugs, spin: bool) {
    // (watermark, frontier) per shard per boundary. Boundary 1 is fully
    // drained on both shards: the agreed decision is Exit.
    const SCRIPT: [[(u64, u64); BOUNDARIES]; SHARDS] = [
        [(NONE_NS, 100), (NONE_NS, NONE_NS)],
        [(500, 300), (NONE_NS, NONE_NS)],
    ];
    let board = Arc::new(WatermarkBoard::new(SHARDS));
    let barrier = Arc::new(SpinBarrier::new_seeded(SHARDS, spin, bugs));
    let oracle = Arc::new(Mutex::named(
        Oracle {
            published: [[None; SHARDS]; BOUNDARIES],
            decisions: [None; BOUNDARIES],
            replays: [0; BOUNDARIES],
        },
        "oracle",
    ));
    let shards: Vec<_> = (0..SHARDS)
        .map(|me| {
            let (board, barrier, oracle) = (board.clone(), barrier.clone(), oracle.clone());
            thread::spawn(move || {
                let mut parity = 0usize;
                let mut next_window = 0u64;
                for b in 0..BOUNDARIES {
                    let (wm, fr) = SCRIPT[me][b];
                    // Ground truth first, protocol second (module docs).
                    oracle.lock().published[b][me] = Some((wm, fr));
                    board.publish(
                        parity,
                        me,
                        &Probe {
                            watermark: wm,
                            frontier: fr,
                            poll_min: NONE_NS,
                            has_ready: fr != NONE_NS,
                            stopped: false,
                            staged_new: 0,
                        },
                    );
                    barrier.wait();
                    let view: View = board.gather(parity, false);
                    let d = decide(&view, next_window, WINDOW_NS, false);
                    let wm_true = {
                        let mut o = oracle.lock();
                        let mut wm_true = NONE_NS;
                        let mut fr_true = NONE_NS;
                        for s in 0..SHARDS {
                            let (w, f) = o.published[b][s]
                                .expect("barrier released before every shard published");
                            wm_true = wm_true.min(w);
                            fr_true = fr_true.min(f);
                        }
                        assert_eq!(
                            view.watermark, wm_true,
                            "lost publish: shard {me} gathered watermark {} at boundary {b}, true minimum is {}",
                            view.watermark, wm_true
                        );
                        assert_eq!(
                            view.t_next, fr_true,
                            "lost publish: shard {me} gathered frontier {} at boundary {b}, true minimum is {}",
                            view.t_next, fr_true
                        );
                        match o.decisions[b] {
                            None => o.decisions[b] = Some(d),
                            Some(prev) => assert_eq!(
                                prev, d,
                                "boundary {b} decision diverged between shards"
                            ),
                        }
                        wm_true
                    };
                    match d {
                        Decision::Exit => {
                            assert_eq!(b, BOUNDARIES - 1, "premature exit at boundary {b}");
                            return;
                        }
                        Decision::Fused { window } => {
                            assert!(
                                wm_true >= (window + 1).saturating_mul(WINDOW_NS),
                                "fused window {window} over a parked arrival at {wm_true}"
                            );
                            next_window = window + 1;
                        }
                        Decision::Coordinate => {
                            // Deposit barrier, elected replay, plan barrier —
                            // the drive() loop's coordinated-boundary shape.
                            barrier.wait();
                            if me == 0 {
                                oracle.lock().replays[b] += 1;
                            }
                            barrier.wait();
                            assert_eq!(
                                oracle.lock().replays[b],
                                1,
                                "replay at boundary {b} must run exactly once"
                            );
                            next_window += 1;
                        }
                    }
                    parity ^= 1;
                }
            })
        })
        .collect();
    for s in shards {
        s.join();
    }
}

/// `Staged`: job deposited, unclaimed.
pub const STAGED: u8 = 0;
/// `Running`: a worker won the claim CAS.
pub const RUNNING: u8 = 1;
/// `Done`: the claiming worker finished the job.
pub const DONE: u8 = 2;

/// The live machine's lifecycle shape: a producer pushes jobs through a
/// capacity-1 channel (backpressure), arms the stop flag before the final
/// "Flush" send, and two workers race a `Staged -> Running` claim CAS.
pub fn live_lifecycle_program() {
    let (tx, rx) = channel::<u32>(1, "jobs");
    let stop = Arc::new(AtomicBool::named(false, "stop"));
    let state = Arc::new(AtomicU8::named(STAGED, "job.state"));
    let claimed = Arc::new(AtomicU64::named(0, "claimed"));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let (state, claimed) = (state.clone(), claimed.clone());
            thread::spawn(move || {
                if state
                    .compare_exchange(STAGED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    claimed.fetch_add(1, Ordering::Relaxed);
                    state.store(DONE, Ordering::Release);
                }
            })
        })
        .collect();
    let s2 = stop.clone();
    let producer = thread::spawn(move || {
        tx.send(10).expect("receiver alive");
        tx.send(11).expect("receiver alive");
        // Flush: stop is armed strictly before the final send, so the
        // channel edge publishes it to whoever receives that job.
        s2.store(true, Ordering::Release);
        tx.send(12).expect("receiver alive");
    });
    assert_eq!(rx.recv(), Ok(10), "staging must be FIFO");
    assert_eq!(rx.recv(), Ok(11), "staging must be FIFO");
    assert_eq!(rx.recv(), Ok(12), "staging must be FIFO");
    assert!(
        stop.load(Ordering::Acquire),
        "Flush delivery must imply the stop flag"
    );
    assert!(rx.recv().is_err(), "producer drop must disconnect, not hang");
    producer.join();
    for w in workers {
        w.join();
    }
    assert_eq!(claimed.load(Ordering::SeqCst), 1, "job claimed exactly once");
    assert_eq!(state.load(Ordering::SeqCst), DONE, "claimed job must finish");
}

/// Seeded misuse of the [`Doorbell`] protocol by its callers; each is a
/// lost wake-up the explorer must find as a deadlock on `bell.cv`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DoorbellBug {
    /// The protocol as `live.rs` runs it.
    #[default]
    None,
    /// A producer rings *before* it enqueues: the ring can find the node
    /// awake, and the item then lands behind a sleeper nobody wakes.
    RingBeforeEnqueue,
    /// The sleeper parks straight after announcing, without looking at its
    /// queues again: an item enqueued between its last look and the
    /// announce rang nobody.
    SkipRecheck,
}

/// The live node's sleep/wake handshake over the production [`Doorbell`]:
/// two producers — a peer's `LiveNet::inject` (packet) and
/// `LiveMachine::submit` (job) — each enqueue one item and ring, while
/// the node runs `Node::run`'s idle branch with **no timeout**: drain,
/// announce, drain again, park. The queues are counters under model
/// mutexes (an mpsc queue as far as this protocol can tell: enqueue and
/// drain are totally ordered and a drain sees every earlier enqueue).
pub fn doorbell_program(bug: DoorbellBug) {
    let bell = Arc::new(Doorbell::new());
    let queues = [
        (Arc::new(Mutex::named(0u32, "packets")), RING_PACKET),
        (Arc::new(Mutex::named(0u32, "jobs")), RING_JOB),
    ];
    let producers: Vec<_> = queues
        .iter()
        .map(|(queue, why)| {
            let (bell, queue, why) = (bell.clone(), queue.clone(), *why);
            thread::spawn(move || {
                if bug == DoorbellBug::RingBeforeEnqueue {
                    bell.ring(why);
                    *queue.lock() += 1;
                } else {
                    *queue.lock() += 1;
                    bell.ring(why);
                }
            })
        })
        .collect();
    let drain = || -> u32 {
        queues
            .iter()
            .map(|(queue, _)| std::mem::take(&mut *queue.lock()))
            .sum()
    };
    let mut consumed = drain();
    while consumed < 2 {
        bell.announce();
        if bug != DoorbellBug::SkipRecheck {
            let found = drain();
            if found > 0 {
                bell.cancel();
                consumed += found;
                continue;
            }
        }
        let why = bell.park(None);
        assert!(
            why != 0 && why & !(RING_PACKET | RING_JOB) == 0,
            "an untimed park ends only by a producer's ring, got token {why:#b}"
        );
        consumed += drain();
    }
    for p in producers {
        p.join();
    }
    assert_eq!(consumed, 2, "each item is consumed exactly once");
    assert_eq!(drain(), 0, "nothing is left behind");
}
