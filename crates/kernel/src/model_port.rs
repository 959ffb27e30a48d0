//! Model-checkable ports of the kernel's concurrent protocols, compiled
//! only under `--features model`.
//!
//! The program is written against [`crate::sync`] — which, under this
//! feature, routes every primitive through the `hal-model` interleaving
//! explorer — and drives the *production* [`Doorbell`], not a
//! re-implementation. A model program must drive shipped code: the live
//! machine's lifecycle (`LiveState`) is an enum behind `&mut self`, with
//! no claim to race, so it has no program here.
//!
//! # Checked invariants
//!
//! Live wake-up ([`doorbell_program`]):
//! * **No lost wake-up** — a node that parks *without a timeout* is woken
//!   by every enqueue that its re-check missed (checked as termination: a
//!   lost ring leaves the sleeper on `bell.cv` forever and the explorer
//!   reports the deadlock).
//! * **Exactly-once consumption** — each producer's item is taken once.
//! * **Honest tokens** — a wake names only reasons a producer rang.

use crate::sync::{thread, Doorbell, Mutex, RING_JOB, RING_PACKET};
use std::sync::Arc;

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
