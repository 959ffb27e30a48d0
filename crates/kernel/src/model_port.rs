//! Model-checkable ports of the kernel's concurrent protocols, compiled
//! only under `--features model`.
//!
//! The programs are written against [`crate::sync`] — which, under this
//! feature, routes every primitive through the `hal-model` interleaving
//! explorer — and drive the *production* [`Doorbell`], not a
//! re-implementation.
//!
//! # Checked invariants
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

use crate::sync::{
    channel, thread, AtomicBool, AtomicU64, AtomicU8, Doorbell, Mutex, Ordering, RING_JOB,
    RING_PACKET,
};
use std::sync::Arc;

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
