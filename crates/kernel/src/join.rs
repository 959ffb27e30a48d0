//! Join continuations (§6.2, Fig. 4).
//!
//! "A join continuation has four components, namely *counter*, *function*,
//! *creator* and a set of *argument slots*; counter contains the number of
//! empty slots to be filled with subsequent replies. As soon as one slot
//! is filled, it is decremented by one. When it becomes zero the function
//! pointed by function is invoked with the continuation as its argument."
//!
//! The HAL compiler turns `request` sends into asynchronous sends whose
//! replies target a join continuation; sends with no mutual dependence
//! share one continuation. Continuations are deterministic — they fire
//! exactly once and never receive further messages — which is why they
//! can live outside the actor heap in a slab with aggressive reuse.
//!
//! The commonest shape, one request and one reply, needs no slots at
//! all: a *one-slot* continuation keeps only its body, and the reply
//! moves straight into it. Both kinds share one slab, one id space and
//! one free list.

use crate::addr::{ActorId, JcId};
use crate::message::Value;

/// The function a slotted continuation runs when all slots are filled.
/// The boxed closure is the Rust analog of the paper's `function`
/// pointer plus the pre-filled known slots (captured state).
pub type JoinFn = Box<dyn FnOnce(&mut crate::kernel::Ctx<'_>, Vec<Value>) + Send>;

/// The function a one-slot continuation runs on its single reply.
pub type ReplyFn = Box<dyn FnOnce(&mut crate::kernel::Ctx<'_>, Value) + Send>;

/// What a continuation waits with: its two body kinds.
enum Body {
    /// One reply, into slot 0, moved straight into the function.
    Reply(ReplyFn),
    /// Fig. 4's general form.
    Slotted {
        /// Empty slots remaining.
        counter: u16,
        /// Argument slots; `None` marks a slot awaiting a reply.
        slots: Vec<Option<Value>>,
        /// The continuation body.
        func: JoinFn,
    },
}

/// One join continuation (Fig. 4).
struct JoinContinuation {
    body: Body,
    /// The actor that created the continuation, "used to notify the
    /// actor of the completion of continuation if necessary".
    creator: Option<ActorId>,
}

// The second body kind costs a slab cell nothing.
const _: () = assert!(std::mem::size_of::<Option<JoinContinuation>>() <= 56);

/// A fired continuation's body with its arguments.
pub enum Fired {
    /// A one-slot body and its reply.
    Reply(ReplyFn, Value),
    /// A slotted body and its filled slots, in slot order.
    Slotted(JoinFn, Vec<Value>),
}

/// Everything needed to run a fired continuation.
pub struct FiredJoin {
    /// The continuation body to invoke, with its arguments.
    pub body: Fired,
    /// The creating actor, if completion notification is wanted.
    pub creator: Option<ActorId>,
}

/// Per-node slab of pending join continuations.
#[derive(Default)]
pub struct JoinTable {
    slots: Vec<Option<JoinContinuation>>,
    free: Vec<u32>,
    created_total: u64,
    fired_total: u64,
}

impl JoinTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a slotted continuation with `arity` slots, of which
    /// `prefilled` (slot index, value) pairs are already known at
    /// creation time.
    ///
    /// # Panics
    /// Panics if `arity` is 1 (a one-slot join is made by
    /// [`JoinTable::create_reply`]), if a prefilled index is out of range
    /// or duplicated, or if *all* slots are prefilled (the compiler never
    /// emits a join with nothing to wait for — it would have inlined the
    /// continuation).
    pub fn create(
        &mut self,
        arity: u16,
        prefilled: Vec<(u16, Value)>,
        func: JoinFn,
        creator: Option<ActorId>,
    ) -> JcId {
        assert!(arity != 1, "a one-slot join is created by create_reply");
        let mut slots: Vec<Option<Value>> = vec![None; arity as usize];
        for (i, v) in prefilled {
            let slot = &mut slots[i as usize];
            assert!(slot.is_none(), "duplicate prefilled join slot {i}");
            *slot = Some(v);
        }
        let empty = slots.iter().filter(|s| s.is_none()).count() as u16;
        assert!(empty > 0, "join continuation with no empty slots");
        self.insert(JoinContinuation {
            body: Body::Slotted {
                counter: empty,
                slots,
                func,
            },
            creator,
        })
    }

    /// Create a one-slot continuation: its single reply, to slot 0, is
    /// passed straight to `func`.
    pub fn create_reply(&mut self, func: ReplyFn, creator: Option<ActorId>) -> JcId {
        self.insert(JoinContinuation {
            body: Body::Reply(func),
            creator,
        })
    }

    fn insert(&mut self, jc: JoinContinuation) -> JcId {
        self.created_total += 1;
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(jc);
            JcId(idx)
        } else {
            self.slots.push(Some(jc));
            JcId((self.slots.len() - 1) as u32)
        }
    }

    /// Fill `slot` of continuation `id` with a reply value. When the
    /// counter reaches zero the continuation is removed and returned for
    /// firing; a one-slot continuation fires on its first fill.
    ///
    /// # Panics
    /// Panics on unknown ids, already-filled slots, or out-of-range slots
    /// (any slot but 0 on a one-slot continuation) — every such case is a
    /// protocol violation (a reply delivered twice or to the wrong place),
    /// which must not be silent.
    pub fn fill(&mut self, id: JcId, slot: u16, value: Value) -> Option<FiredJoin> {
        let cell = &mut self.slots[id.0 as usize];
        let jc = cell.as_mut().expect("reply to unknown join continuation");
        match &mut jc.body {
            Body::Reply(_) => assert!(slot == 0, "join slot {slot} filled twice"),
            Body::Slotted { counter, slots, .. } => {
                let s = &mut slots[slot as usize];
                assert!(s.is_none(), "join slot {slot} filled twice");
                if *counter > 1 {
                    *s = Some(value);
                    *counter -= 1;
                    return None;
                }
            }
        }
        let jc = cell.take().expect("the continuation was found above");
        self.free.push(id.0);
        self.fired_total += 1;
        let body = match jc.body {
            Body::Reply(func) => Fired::Reply(func, value),
            Body::Slotted {
                mut slots, func, ..
            } => {
                slots[slot as usize] = Some(value);
                let values = slots.into_iter().map(|s| s.expect("every slot is filled"));
                Fired::Slotted(func, values.collect())
            }
        };
        Some(FiredJoin {
            body,
            creator: jc.creator,
        })
    }

    /// Continuations currently waiting.
    pub fn pending(&self) -> usize {
        (self.created_total - self.fired_total) as usize
    }

    /// Total continuations ever created.
    pub fn created_total(&self) -> u64 {
        self.created_total
    }

    /// Total continuations fired.
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hal_am::Bytes;

    fn nop() -> JoinFn {
        Box::new(|_, _| {})
    }

    fn nop_reply() -> ReplyFn {
        Box::new(|_, _| {})
    }

    /// The arguments a fired slotted continuation runs with.
    fn values(fired: FiredJoin) -> Vec<Value> {
        match fired.body {
            Fired::Slotted(_, values) => values,
            Fired::Reply(..) => panic!("a slotted join fired as a one-slot one"),
        }
    }

    /// The reply a fired one-slot continuation runs with.
    fn reply(fired: FiredJoin) -> Value {
        match fired.body {
            Fired::Reply(_, value) => value,
            Fired::Slotted(..) => panic!("a one-slot join fired as a slotted one"),
        }
    }

    #[test]
    fn fires_when_last_slot_fills() {
        let mut t = JoinTable::new();
        let id = t.create(2, vec![], nop(), None);
        assert!(t.fill(id, 0, Value::Int(1)).is_none());
        let fired = t.fill(id, 1, Value::Int(2)).expect("should fire");
        assert_eq!(values(fired), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(t.pending(), 0);
        assert_eq!(t.fired_total(), 1);
    }

    #[test]
    fn prefilled_slots_count_toward_completion() {
        let mut t = JoinTable::new();
        // Fig. 4's example: some slots known at creation, others awaiting
        // replies.
        let id = t.create(
            4,
            vec![(0, Value::Int(10)), (2, Value::Int(30))],
            nop(),
            Some(ActorId(5)),
        );
        assert!(t.fill(id, 1, Value::Int(20)).is_none());
        let fired = t.fill(id, 3, Value::Int(40)).unwrap();
        assert_eq!(fired.creator, Some(ActorId(5)));
        assert_eq!(
            values(fired),
            vec![
                Value::Int(10),
                Value::Int(20),
                Value::Int(30),
                Value::Int(40)
            ]
        );
    }

    #[test]
    fn ids_are_reused_after_firing() {
        let mut t = JoinTable::new();
        let a = t.create(2, vec![], nop(), None);
        t.fill(a, 0, Value::Unit);
        t.fill(a, 1, Value::Unit);
        let b = t.create(2, vec![], nop(), None);
        assert_eq!(a, b, "slab reuses fired slots");
        assert_eq!(t.created_total(), 2);
    }

    #[test]
    fn out_of_order_fills() {
        let mut t = JoinTable::new();
        let id = t.create(3, vec![], nop(), None);
        assert!(t.fill(id, 2, Value::Int(3)).is_none());
        assert!(t.fill(id, 0, Value::Int(1)).is_none());
        let fired = t.fill(id, 1, Value::Int(2)).unwrap();
        assert_eq!(
            values(fired),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn double_fill_panics() {
        let mut t = JoinTable::new();
        let id = t.create(2, vec![], nop(), None);
        t.fill(id, 0, Value::Int(1));
        t.fill(id, 0, Value::Int(1));
    }

    #[test]
    #[should_panic(expected = "unknown join continuation")]
    fn fill_after_fire_panics() {
        let mut t = JoinTable::new();
        let id = t.create_reply(nop_reply(), None);
        t.fill(id, 0, Value::Unit);
        t.fill(id, 0, Value::Unit);
    }

    #[test]
    #[should_panic(expected = "no empty slots")]
    fn fully_prefilled_join_rejected() {
        let mut t = JoinTable::new();
        t.create(2, vec![(0, Value::Unit), (1, Value::Unit)], nop(), None);
    }

    #[test]
    #[should_panic(expected = "create_reply")]
    fn a_slotted_join_of_arity_one_is_rejected() {
        JoinTable::new().create(1, vec![], nop(), None);
    }

    #[test]
    fn closure_state_travels_with_the_join() {
        let mut t = JoinTable::new();
        let captured = 99i64;
        let func: ReplyFn = Box::new(move |_, _| {
            // The captured state plays the role of pre-known slot values.
            assert_eq!(captured, 99);
        });
        let id = t.create_reply(func, None);
        let fired = t.fill(id, 0, Value::Int(1)).unwrap();
        // We cannot invoke without a kernel Ctx here; just ensure the
        // closure and value made it out intact.
        assert_eq!(reply(fired), Value::Int(1));
    }

    #[test]
    fn a_one_slot_join_fires_on_its_first_fill_with_the_value_moved() {
        let mut t = JoinTable::new();
        let id = t.create_reply(nop_reply(), Some(ActorId(3)));
        assert_eq!(t.pending(), 1);
        let payload = Bytes::from(vec![7u8; 64]);
        let sent = payload.as_slice().as_ptr();
        let fired = t.fill(id, 0, Value::Bytes(payload)).expect("fires at once");
        assert_eq!(fired.creator, Some(ActorId(3)));
        let Value::Bytes(got) = reply(fired) else {
            panic!("the reply is the Bytes sent")
        };
        assert_eq!(
            got.as_slice().as_ptr(),
            sent,
            "the buffer moved, not copied"
        );
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn both_kinds_share_one_free_list_and_one_count() {
        let mut t = JoinTable::new();
        let a = t.create_reply(nop_reply(), None);
        let b = t.create(2, vec![], nop(), None);
        let c = t.create_reply(nop_reply(), None);
        assert_eq!((a, b, c), (JcId(0), JcId(1), JcId(2)));
        assert_eq!((t.pending(), t.created_total(), t.fired_total()), (3, 3, 0));
        assert!(t.fill(b, 1, Value::Int(2)).is_none());
        assert!(t.fill(a, 0, Value::Int(1)).is_some());
        // A slotted join takes the id a one-slot join freed, and back.
        let d = t.create(3, vec![(2, Value::Unit)], nop(), None);
        assert_eq!(d, a);
        assert!(t.fill(b, 0, Value::Int(1)).is_some());
        let e = t.create_reply(nop_reply(), None);
        assert_eq!(e, b);
        assert_eq!((t.pending(), t.created_total(), t.fired_total()), (3, 5, 2));
        assert!(t.fill(c, 0, Value::Unit).is_some());
        assert!(t.fill(e, 0, Value::Unit).is_some());
        assert!(t.fill(d, 0, Value::Unit).is_none());
        assert!(t.fill(d, 1, Value::Unit).is_some());
        assert_eq!((t.pending(), t.created_total(), t.fired_total()), (0, 5, 5));
    }

    #[test]
    #[should_panic(expected = "join slot 1 filled twice")]
    fn a_one_slot_join_refuses_slot_one() {
        let mut t = JoinTable::new();
        let id = t.create_reply(nop_reply(), None);
        t.fill(id, 1, Value::Unit);
    }

    #[test]
    #[should_panic(expected = "reply to unknown join continuation")]
    fn a_one_slot_join_refuses_a_second_reply() {
        let mut t = JoinTable::new();
        let id = t.create_reply(nop_reply(), None);
        assert!(t.fill(id, 0, Value::Unit).is_some());
        t.fill(id, 0, Value::Unit);
    }
}
