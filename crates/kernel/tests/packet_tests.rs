//! A packet's kernel message is boxed once, where the kernel sends it,
//! and only that pointer moves afterwards: from the outbox through the
//! simulated network to the receiving kernel nothing re-boxes, copies or
//! allocates for it.

use hal_am::{AmEnvelope, LinkModel, SimNetwork};
use hal_kernel::kernel::{with_system_ctx, Ctx};
use hal_kernel::{Behavior, BehaviorRegistry, KMsg, Kernel, MachineConfig, Msg, Outbound, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the count is a thread-local `Cell` with no
// destructor, so touching it neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Reports that it ran.
struct Sink;

impl Behavior for Sink {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        ctx.report("ran", Value::Int(1));
    }
}

fn kernel(me: u16) -> Kernel {
    Kernel::new(me, &MachineConfig::new(3), Arc::new(BehaviorRegistry::new()))
}

/// The address of the boxed message a small envelope carries.
fn boxed(env: &AmEnvelope<Box<KMsg>>) -> *const KMsg {
    match env {
        AmEnvelope::Small(k) => std::ptr::from_ref(&**k),
        other => panic!("a small Deliver, not {other:?}"),
    }
}

#[test]
fn a_remote_message_keeps_its_box_from_outbox_to_handler() {
    let (mut k1, mut k2) = (kernel(1), kernel(2));
    let sink = k2.bootstrap(Box::new(Sink), None);
    with_system_ctx(&mut k1, |ctx| {
        ctx.send(sink, 0, vec![]);
        ctx.send(sink, 0, vec![]);
    });
    let outbox: Vec<Outbound> = k1.drain_outbox().collect();
    assert_eq!(outbox.len(), 2);
    let mut net = SimNetwork::with_capacity(3, LinkModel::cm5(), 16);
    for (i, out) in outbox.into_iter().enumerate() {
        let Outbound::Packet { at, dst: 2, env, wire } = out else {
            panic!("packet {i} goes to node 2");
        };
        let (before, sent) = (allocs(), boxed(&env));
        net.inject(at, 1, 2, env, wire);
        let (t, pkt) = net.pop().expect("in flight");
        // The first packet on a link enters it in the link table.
        if i > 0 {
            assert_eq!(allocs(), before, "network in and out allocates nothing");
        }
        assert_eq!(boxed(&pkt.body), sent, "the network moved the pointer");
        assert!(k2.deliver(t, pkt).is_some());
    }
    while k2.step() {}
    assert_eq!(k2.reports.len(), 2, "the sink on node 2 ran both messages");
}
