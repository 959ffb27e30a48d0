//! The heap traffic of a local call/return, counted: a `call_then`
//! round trip allocates its argument vector and its continuation body
//! and nothing else, while a two-call `JoinBuilder` round also pays for
//! its call list and its slot vector. Counts only, never time.

use hal::prelude::*;
use hal::SimMachine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

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

/// Replies to every request with its own argument.
struct Echo;

impl Behavior for Echo {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, mut msg: Msg) {
        ctx.reply(msg.args.pop().unwrap_or(Value::Unit));
    }
}

/// Round trips before the count is read: the mail slab, the join slab
/// and the event queue reach their working size.
const WARM_UP: usize = 16;
/// Round trips counted after the warm-up.
const COUNTED: usize = 64;

/// The allocation count at the start of each round, in order.
type Marks = Arc<Mutex<Vec<u64>>>;

/// Run `WARM_UP + COUNTED` rounds of `round` back to back on a one-node
/// simulator, each started by the previous round's continuation, and
/// return the allocations each counted round made.
fn per_round(round: fn(&mut Ctx<'_>, MailAddr, usize, Marks)) -> Vec<u64> {
    let rounds = WARM_UP + COUNTED;
    let marks: Marks = Arc::new(Mutex::new(Vec::with_capacity(rounds + 1)));
    let mut m = SimMachine::new(MachineConfig::new(1), Program::new().build());
    let marks_in = Arc::clone(&marks);
    m.with_ctx(0, move |ctx| {
        let echo = ctx.create_local(Box::new(Echo));
        round(ctx, echo, rounds, marks_in);
    });
    m.run().expect("the rounds drain");
    let marks = marks.lock().unwrap();
    assert_eq!(marks.len(), rounds + 1, "every round completed");
    marks[WARM_UP..].windows(2).map(|w| w[1] - w[0]).collect()
}

/// One `call_then` to the echo, whose reply starts the next round.
fn call_then_round(ctx: &mut Ctx<'_>, echo: MailAddr, left: usize, marks: Marks) {
    marks.lock().unwrap().push(allocs());
    if left == 0 {
        return;
    }
    call_then(ctx, echo, 0, vec![Value::Int(1)], move |ctx, v| {
        assert_eq!(v, Value::Int(1));
        call_then_round(ctx, echo, left - 1, marks);
    });
}

/// Two calls to the echo under one slotted join.
fn join_builder_round(ctx: &mut Ctx<'_>, echo: MailAddr, left: usize, marks: Marks) {
    marks.lock().unwrap().push(allocs());
    if left == 0 {
        return;
    }
    JoinBuilder::new()
        .call(echo, 0, vec![Value::Int(1)])
        .call(echo, 0, vec![Value::Int(2)])
        .then(ctx, move |ctx, vals| {
            assert_eq!(vals, [Value::Int(1), Value::Int(2)]);
            join_builder_round(ctx, echo, left - 1, marks);
        });
}

#[test]
fn a_local_call_then_allocates_its_arguments_and_its_body() {
    assert_eq!(per_round(call_then_round), vec![2; COUNTED]);
}

#[test]
fn a_two_call_join_keeps_its_call_list_and_slot_vector() {
    // Two argument vectors, the call list, the slot vector and the body.
    assert_eq!(per_round(join_builder_round), vec![5; COUNTED]);
}
