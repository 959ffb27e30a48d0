//! Actors: the behavior trait, per-actor state, and the actor slab.
//!
//! An actor (§2.1) responds to a message by sending messages, creating
//! actors, and becoming a new behavior. "Communication between actors is
//! buffered: incoming messages are queued until the actor is ready to
//! process them." Per §6.1, HAL additionally supports *local
//! synchronization constraints* as disabling conditions: a message whose
//! method is currently disabled goes to the actor's **pending queue** and
//! is retried after each method execution.

use crate::addr::{ActorId, AddrKey, GroupId, Selector};
use crate::message::{Msg, Value};

/// A behavior — the paper's "behavior template" (class) instantiated with
/// acquaintance state. Implemented by user/workload code; invoked by the
/// kernel's dispatcher.
pub trait Behavior: Send {
    /// Process one message. The kernel guarantees `enabled` returned true
    /// for this selector immediately before the call.
    fn dispatch(&mut self, ctx: &mut crate::kernel::Ctx<'_>, msg: Msg);

    /// Local synchronization constraint (§6.1): return `false` to disable
    /// a method in the current state; the message waits in the pending
    /// queue. Default: everything enabled.
    fn enabled(&self, _selector: Selector, _args: &[Value]) -> bool {
        true
    }

    /// Debug name for traces.
    fn name(&self) -> &'static str {
        "behavior"
    }

    /// The mail addresses this behavior's state currently holds — the
    /// tracing information the HAL compiler generated for garbage
    /// collection. Behaviors that hold addresses (or group ids regarded
    /// as reachable member sets) MUST override this for distributed GC
    /// to be sound; the default declares "no acquaintances".
    fn acquaintances(&self) -> Vec<crate::addr::MailAddr> {
        Vec::new()
    }
}

/// End-of-list link in a [`MailSlab`].
const NIL: u32 = u32::MAX;

/// One message queue, threaded through its node's [`MailSlab`]: the
/// actor owns the three indices, the node owns the messages. An empty
/// queue holds no memory at all. Not `Copy`: two handles on one chain
/// would free its cells twice.
pub(crate) struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Fifo {
    pub const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A slab cell: a queued message and the link to the next cell of its
/// queue — or, while vacant, to the next free cell.
struct Cell {
    msg: Option<Msg>,
    next: u32,
}

/// Every message queued on a node — mail, pending and mid-execution
/// arrivals of every actor — in one vector of cells with a free list
/// threaded through the same links. Its size follows the messages in
/// flight, not the actors ever created.
pub(crate) struct MailSlab {
    cells: Vec<Cell>,
    free: u32,
    live: usize,
}

/// A scan position in one [`Fifo`] that may unlink the message under it
/// (the pending-queue rescan of §6.1).
pub(crate) struct Cursor {
    prev: u32,
    cur: u32,
}

impl Cursor {
    pub fn start(q: &Fifo) -> Self {
        Cursor {
            prev: NIL,
            cur: q.head,
        }
    }
}

impl Default for MailSlab {
    fn default() -> Self {
        MailSlab {
            cells: Vec::new(),
            free: NIL,
            live: 0,
        }
    }
}

impl MailSlab {
    /// Append `msg` to `q`.
    pub fn push_back(&mut self, q: &mut Fifo, msg: Msg) {
        let i = if self.free == NIL {
            // Index `NIL` would end every chain that reached it.
            assert!(self.cells.len() < NIL as usize, "a node holds u32::MAX messages");
            self.cells.push(Cell {
                msg: Some(msg),
                next: NIL,
            });
            (self.cells.len() - 1) as u32
        } else {
            let i = self.free;
            let cell = &mut self.cells[i as usize];
            self.free = cell.next;
            cell.msg = Some(msg);
            cell.next = NIL;
            i
        };
        if q.tail == NIL {
            q.head = i;
        } else {
            self.cells[q.tail as usize].next = i;
        }
        q.tail = i;
        q.len += 1;
        self.live += 1;
    }

    /// Remove the oldest message of `q`.
    pub fn pop_front(&mut self, q: &mut Fifo) -> Option<Msg> {
        if q.head == NIL {
            return None;
        }
        let mut at = Cursor::start(q);
        Some(self.unlink(q, &mut at))
    }

    /// Link all of `other` onto the back of `q` in O(1).
    pub fn append(&mut self, q: &mut Fifo, other: Fifo) {
        if other.head == NIL {
            return;
        }
        if q.tail == NIL {
            *q = other;
        } else {
            self.cells[q.tail as usize].next = other.head;
            q.tail = other.tail;
            q.len += other.len;
        }
    }

    /// Take every message of `q` out of the slab, oldest first.
    pub fn drain(&mut self, q: &mut Fifo) -> Vec<Msg> {
        let mut out = Vec::with_capacity(q.len());
        while let Some(msg) = self.pop_front(q) {
            out.push(msg);
        }
        out
    }

    /// A queue holding `msgs` in order.
    pub fn fifo_from(&mut self, msgs: Vec<Msg>) -> Fifo {
        let mut q = Fifo::EMPTY;
        for msg in msgs {
            self.push_back(&mut q, msg);
        }
        q
    }

    /// The message under the cursor, if the scan has not ended.
    pub fn peek(&self, at: &Cursor) -> Option<&Msg> {
        (at.cur != NIL).then(|| {
            let cell = &self.cells[at.cur as usize];
            cell.msg.as_ref().expect("a linked cell holds a message")
        })
    }

    /// Step the cursor past the message under it.
    pub fn skip(&self, at: &mut Cursor) {
        at.prev = at.cur;
        at.cur = self.cells[at.cur as usize].next;
    }

    /// Unlink and return the message under the cursor, which moves on to
    /// the next one; the rest of `q` keeps its order.
    pub fn unlink(&mut self, q: &mut Fifo, at: &mut Cursor) -> Msg {
        let i = at.cur;
        let cell = &mut self.cells[i as usize];
        let next = cell.next;
        let msg = cell.msg.take().expect("a linked cell holds a message");
        cell.next = self.free;
        self.free = i;
        self.live -= 1;
        if at.prev == NIL {
            q.head = next;
        } else {
            self.cells[at.prev as usize].next = next;
        }
        if q.tail == i {
            q.tail = at.prev;
        }
        q.len -= 1;
        at.cur = next;
        msg
    }

    /// Messages held, over all queues.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Cells allocated: the high-water mark of messages held at once.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }
}

/// Execution state of one actor slot in the slab.
pub(crate) enum Slot {
    /// No actor here (freed / migrated away).
    Vacant,
    /// Actor present with its full record.
    Ready(ActorRecord),
    /// The actor's behavior is currently executing on some stack (the
    /// record has been checked out); messages sent to it in the meantime
    /// accumulate here and are linked onto its mail queue afterwards.
    Running {
        /// Messages that arrived mid-execution.
        inbox: Fifo,
    },
}

/// The per-actor record: behavior plus queues and identity. The queues'
/// messages live in the node's `MailSlab`; the record holds their links.
pub struct ActorRecord {
    /// The actor's current behavior.
    pub behavior: Box<dyn Behavior>,
    /// The actor's primary (ordinary) mail address. Set by the kernel at
    /// install time, once the locality descriptor exists.
    pub addr: crate::addr::MailAddr,
    /// Buffered incoming messages (the actor-model mail queue).
    pub(crate) mailq: Fifo,
    /// Messages whose method was disabled when dispatched (§6.1).
    pub(crate) pendq: Fifo,
    /// True while the actor sits in the dispatcher's ready queue.
    pub scheduled: bool,
    /// The keys naming this actor besides `addr.key`: for a remotely
    /// created actor, its alias. Migration re-registers all of
    /// [`ActorRecord::all_keys`] at the destination.
    pub aliases: Vec<AddrKey>,
    /// Group membership, if created by `grpnew`.
    pub group: Option<(GroupId, u32)>,
    /// Migration hop count — the location epoch (see
    /// [`crate::descriptor::LocalityDescriptor::epoch`]).
    pub hops: u32,
}

// Every actor ever created pays for each field here: a change that grows
// the record has to move this bound, in review.
const _: () = assert!(std::mem::size_of::<ActorRecord>() <= 112);

impl ActorRecord {
    /// Fresh record around a behavior. The address is a sentinel until
    /// the kernel installs the actor and mints its real one.
    pub fn new(behavior: Box<dyn Behavior>) -> Self {
        ActorRecord {
            behavior,
            addr: crate::addr::MailAddr::ordinary(u16::MAX, crate::addr::DescriptorId(u32::MAX)),
            mailq: Fifo::EMPTY,
            pendq: Fifo::EMPTY,
            scheduled: false,
            aliases: Vec::new(),
            group: None,
            hops: 0,
        }
    }

    /// Total messages waiting (mail + pending).
    pub fn queued(&self) -> usize {
        self.mailq.len() + self.pendq.len()
    }

    /// Every mail-address key naming this actor, primary first.
    pub fn all_keys(&self) -> impl Iterator<Item = AddrKey> + '_ {
        std::iter::once(self.addr.key).chain(self.aliases.iter().copied())
    }
}

/// The per-node actor heap: slots with index reuse, and the one
/// [`MailSlab`] every actor's queues live in.
#[derive(Default)]
pub(crate) struct ActorSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    created_total: u64,
    /// The node's queued messages.
    pub mail: MailSlab,
}

impl ActorSlab {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a record, returning its id.
    pub fn insert(&mut self, rec: ActorRecord) -> ActorId {
        self.live += 1;
        self.created_total += 1;
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Slot::Ready(rec);
            ActorId(idx)
        } else {
            self.slots.push(Slot::Ready(rec));
            ActorId((self.slots.len() - 1) as u32)
        }
    }

    /// Check out a record for execution, leaving a `Running` stub that
    /// accumulates concurrent sends-to-self.
    pub fn checkout(&mut self, id: ActorId) -> Option<ActorRecord> {
        let slot = &mut self.slots[id.0 as usize];
        match std::mem::replace(slot, Slot::Running { inbox: Fifo::EMPTY }) {
            Slot::Ready(rec) => Some(rec),
            other => {
                // Put whatever was there back; checkout failed.
                *slot = other;
                None
            }
        }
    }

    /// Return a checked-out record, linking any messages that arrived
    /// while it was running onto the back of its mail queue.
    pub fn checkin(&mut self, id: ActorId, mut rec: ActorRecord) {
        let slot = &mut self.slots[id.0 as usize];
        match std::mem::replace(slot, Slot::Vacant) {
            Slot::Running { inbox } => {
                self.mail.append(&mut rec.mailq, inbox);
                *slot = Slot::Ready(rec);
            }
            _ => panic!("checkin without matching checkout"),
        }
    }

    /// Remove an actor entirely (migration out, GC sweep). The record
    /// must not be checked out; its queues still link into
    /// [`ActorSlab::mail`], which the caller drains.
    pub fn remove(&mut self, id: ActorId) -> ActorRecord {
        let slot = &mut self.slots[id.0 as usize];
        match std::mem::replace(slot, Slot::Vacant) {
            Slot::Ready(rec) => {
                self.free.push(id.0);
                self.live -= 1;
                rec
            }
            _ => panic!("remove of vacant or running actor"),
        }
    }

    /// Deliver a message to an actor in whatever state it is in.
    /// Returns `true` if the actor was idle-and-ready (the caller should
    /// schedule it), `false` otherwise.
    pub fn enqueue(&mut self, id: ActorId, msg: Msg) -> bool {
        match &mut self.slots[id.0 as usize] {
            Slot::Ready(rec) => {
                self.mail.push_back(&mut rec.mailq, msg);
                if rec.scheduled {
                    false
                } else {
                    rec.scheduled = true;
                    true
                }
            }
            Slot::Running { inbox } => {
                self.mail.push_back(inbox, msg);
                false // the executor reschedules on checkin if needed
            }
            Slot::Vacant => panic!("message to vacant actor slot"),
        }
    }

    /// Shared access to a ready record (constraint checks, diagnostics).
    pub fn get(&self, id: ActorId) -> Option<&ActorRecord> {
        match &self.slots[id.0 as usize] {
            Slot::Ready(rec) => Some(rec),
            _ => None,
        }
    }

    /// Mutable access to a ready record.
    pub fn get_mut(&mut self, id: ActorId) -> Option<&mut ActorRecord> {
        match &mut self.slots[id.0 as usize] {
            Slot::Ready(rec) => Some(rec),
            _ => None,
        }
    }

    /// Live actor count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Ids of all live (Ready) actors. Used by the garbage collector's
    /// root scan and sweep; the machine guarantees no actor is checked
    /// out (Running) while a collection runs.
    pub fn live_ids(&self) -> Vec<ActorId> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Ready(_) => Some(ActorId(i as u32)),
                _ => None,
            })
            .collect()
    }

    /// Total actors ever created on this node.
    pub fn created_total(&self) -> u64 {
        self.created_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Behavior for Nop {
        fn dispatch(&mut self, _ctx: &mut crate::kernel::Ctx<'_>, _msg: Msg) {}
    }

    fn msg(sel: Selector) -> Msg {
        Msg::new(sel, vec![])
    }

    #[test]
    fn insert_and_enqueue_schedules_once() {
        let mut slab = ActorSlab::new();
        let id = slab.insert(ActorRecord::new(Box::new(Nop)));
        assert!(slab.enqueue(id, msg(1)), "first enqueue schedules");
        assert!(!slab.enqueue(id, msg(2)), "second enqueue does not");
        assert_eq!(slab.get(id).unwrap().mailq.len(), 2);
        assert_eq!(slab.mail.live(), 2);
    }

    fn drain_selectors(slab: &mut ActorSlab, q: &mut Fifo) -> Vec<Selector> {
        slab.mail.drain(q).into_iter().map(|m| m.selector).collect()
    }

    #[test]
    fn checkout_checkin_merges_inbox() {
        let mut slab = ActorSlab::new();
        let id = slab.insert(ActorRecord::new(Box::new(Nop)));
        slab.enqueue(id, msg(1));
        let mut rec = slab.checkout(id).unwrap();
        assert_eq!(slab.mail.pop_front(&mut rec.mailq).unwrap().selector, 1);
        // Message arrives while running.
        assert!(!slab.enqueue(id, msg(2)));
        slab.checkin(id, rec);
        let rec = slab.get_mut(id).unwrap();
        let mut q = std::mem::replace(&mut rec.mailq, Fifo::EMPTY);
        assert_eq!(drain_selectors(&mut slab, &mut q), [2]);
    }

    #[test]
    fn checkin_links_inbox_behind_the_remaining_mail_in_order() {
        let mut slab = ActorSlab::new();
        let id = slab.insert(ActorRecord::new(Box::new(Nop)));
        for sel in 1..=4 {
            slab.enqueue(id, msg(sel));
        }
        let mut rec = slab.checkout(id).unwrap();
        assert_eq!(slab.mail.pop_front(&mut rec.mailq).unwrap().selector, 1);
        for sel in 5..=7 {
            assert!(!slab.enqueue(id, msg(sel)));
        }
        slab.checkin(id, rec);
        let mut rec = slab.checkout(id).unwrap();
        assert_eq!(rec.mailq.len(), 6);
        assert_eq!(
            drain_selectors(&mut slab, &mut rec.mailq),
            [2, 3, 4, 5, 6, 7]
        );
        assert!(rec.mailq.is_empty());
        slab.checkin(id, rec);
        assert_eq!(slab.mail.live(), 0);
        assert_eq!(
            slab.mail.cells(),
            6,
            "peak messages held, not messages ever sent"
        );
    }

    #[test]
    fn checkin_onto_an_empty_mail_queue_takes_the_inbox_whole() {
        let mut slab = ActorSlab::new();
        let id = slab.insert(ActorRecord::new(Box::new(Nop)));
        let rec = slab.checkout(id).unwrap();
        slab.enqueue(id, msg(8));
        slab.enqueue(id, msg(9));
        slab.checkin(id, rec);
        slab.enqueue(id, msg(10));
        let mut rec = slab.checkout(id).unwrap();
        assert_eq!(drain_selectors(&mut slab, &mut rec.mailq), [8, 9, 10]);
    }

    #[test]
    fn unlinking_mid_scan_keeps_the_rest_in_order_and_reuses_cells() {
        let mut mail = MailSlab::default();
        let mut q = mail.fifo_from((0..6).map(msg).collect());
        // Unlink the evens, as a rescan taking every enabled message would.
        let mut at = Cursor::start(&q);
        let mut taken = Vec::new();
        while let Some(m) = mail.peek(&at) {
            if m.selector % 2 == 0 {
                taken.push(mail.unlink(&mut q, &mut at).selector);
            } else {
                mail.skip(&mut at);
            }
        }
        assert_eq!(taken, [0, 2, 4]);
        assert_eq!(q.len(), 3);
        // The tail moved back onto 5's cell: appending still lands last.
        mail.push_back(&mut q, msg(6));
        let mut at = Cursor::start(&q);
        let last = mail.unlink(&mut q, &mut at);
        assert_eq!(last.selector, 1, "unlinking the head");
        let rest: Vec<_> = mail.drain(&mut q).into_iter().map(|m| m.selector).collect();
        assert_eq!(rest, [3, 5, 6]);
        assert_eq!(mail.cells(), 6, "freed cells were reused");
        assert_eq!(mail.live(), 0);
    }

    #[test]
    fn double_checkout_fails() {
        let mut slab = ActorSlab::new();
        let id = slab.insert(ActorRecord::new(Box::new(Nop)));
        let rec = slab.checkout(id).unwrap();
        assert!(slab.checkout(id).is_none());
        slab.checkin(id, rec);
        assert!(slab.checkout(id).is_some());
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut slab = ActorSlab::new();
        let a = slab.insert(ActorRecord::new(Box::new(Nop)));
        let _b = slab.insert(ActorRecord::new(Box::new(Nop)));
        slab.remove(a);
        assert_eq!(slab.len(), 1);
        let c = slab.insert(ActorRecord::new(Box::new(Nop)));
        assert_eq!(c, a, "slot reused");
        assert_eq!(slab.created_total(), 3);
    }

    #[test]
    #[should_panic(expected = "vacant actor slot")]
    fn enqueue_to_vacant_panics() {
        let mut slab = ActorSlab::new();
        let a = slab.insert(ActorRecord::new(Box::new(Nop)));
        slab.remove(a);
        slab.enqueue(a, msg(1));
    }

    #[test]
    #[should_panic(expected = "without matching checkout")]
    fn checkin_without_checkout_panics() {
        let mut slab = ActorSlab::new();
        let a = slab.insert(ActorRecord::new(Box::new(Nop)));
        let rec = ActorRecord::new(Box::new(Nop));
        let _ = a;
        slab.checkin(a, rec);
    }
}
