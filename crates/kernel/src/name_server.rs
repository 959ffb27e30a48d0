//! The per-node name server: descriptor arena + local name table (§4.2).
//!
//! "Each kernel maintains its own (local) name table, and name
//! translation from a mail address to the location information is
//! performed by consulting the local name table only; i.e., it does not
//! require inter-processor communication to get a receiver's actual
//! location. Name tables are implemented as hash tables whose entries are
//! actor locality descriptors."
//!
//! Our hash table is [`hal_des::Map`], hashed by [`hal_des::table::WordHasher`]
//! (one add and one multiply per word) rather than std's SipHash. That is
//! safe because every key is minted by this process's kernels, never chosen
//! by an outside party; a transport that accepts keys from another process
//! must revisit it (see [`hal_des::table`]).
//!
//! Two properties matter:
//!
//! 1. **Birthplace fast path** — when `key.birthplace == me`, the mail
//!    address literally *is* the descriptor index; resolution is an array
//!    access, no hash lookup (the paper's "use of real addresses in mail
//!    addresses").
//! 2. **Best-guess consistency** — entries for remote actors may be
//!    stale after migration; the FIR machinery (§4.3) repairs them on
//!    demand. The name server itself never blocks or communicates.

use crate::addr::{ActorId, AddrKey, DescriptorId};
use crate::descriptor::{DescriptorArena, Locality, LocalityDescriptor};
use hal_am::NodeId;
use hal_des::Map;

/// The result of a locality check, distinguishing how the answer was
/// found (the cost model charges differently for fast-path vs hashed
/// lookups).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Actor is local: direct reference.
    Local(ActorId),
    /// Best guess: remote node, with an optional cached remote
    /// descriptor index.
    Remote {
        /// Believed location.
        node: NodeId,
        /// Cached descriptor index on that node.
        remote_index: Option<DescriptorId>,
    },
    /// The node has no descriptor for this key at all.
    Unknown,
}

/// Per-node name server.
pub struct NameServer {
    me: NodeId,
    arena: DescriptorArena,
    table: Map<AddrKey, DescriptorId>,
}

impl NameServer {
    /// Name server for node `me`.
    pub fn new(me: NodeId) -> Self {
        NameServer {
            me,
            arena: DescriptorArena::new(),
            table: Map::default(),
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// Allocate a descriptor for a locally created actor and return its
    /// id — which becomes the `index` of the actor's ordinary mail
    /// address (§4.1: "a locality descriptor is allocated and assigned to
    /// an actor when it is created").
    pub fn alloc_local(&mut self, actor: ActorId, epoch: u32) -> DescriptorId {
        self.arena.alloc(LocalityDescriptor {
            locality: Locality::Local(actor),
            epoch,
        })
    }

    /// Allocate a descriptor recording a best guess about a remote actor
    /// (sender-side caching, or an alias minted at request time).
    pub fn alloc_remote(
        &mut self,
        node: NodeId,
        remote_index: Option<DescriptorId>,
        epoch: u32,
    ) -> DescriptorId {
        self.arena.alloc(LocalityDescriptor {
            locality: Locality::Remote { node, remote_index },
            epoch,
        })
    }

    /// Bind an additional key to an existing descriptor. Used for:
    /// non-birthplace keys cached locally; alias registration on the
    /// creating node ("registers the actor in its local name table with
    /// the received alias", §5); migrated-in actors re-registering all
    /// their keys.
    pub fn bind(&mut self, key: AddrKey, desc: DescriptorId) {
        debug_assert!(self.arena.contains(desc));
        self.table.insert(key, desc);
    }

    /// Resolve a key to this node's descriptor for it, if any.
    ///
    /// Birthplace keys resolve by direct index (no hashing); foreign keys
    /// go through the hash table.
    pub fn descriptor_for(&self, key: AddrKey) -> Option<DescriptorId> {
        if key.birthplace == self.me {
            // The address embeds the descriptor index directly. A miss
            // here (freed descriptor) would be a dangling address.
            if self.arena.contains(key.index) {
                Some(key.index)
            } else {
                None
            }
        } else {
            self.table.get(&key).copied()
        }
    }

    /// Full locality check: what this node believes about `key`,
    /// using only local information (the paper's headline property).
    pub fn resolve(&self, key: AddrKey) -> Resolution {
        match self.descriptor_for(key) {
            None => Resolution::Unknown,
            Some(d) => match self.arena.get(d).locality {
                Locality::Local(a) => Resolution::Local(a),
                Locality::Remote { node, remote_index } => Resolution::Remote { node, remote_index },
            },
        }
    }

    /// Direct descriptor access.
    pub fn descriptor(&self, id: DescriptorId) -> &LocalityDescriptor {
        self.arena.get(id)
    }

    /// Mutate a descriptor (migration updates, FIR repairs, caching).
    pub fn descriptor_mut(&mut self, id: DescriptorId) -> &mut LocalityDescriptor {
        self.arena.get_mut(id)
    }

    /// Whether a descriptor id is live (used to validate `dst_desc`
    /// hints arriving from the network).
    pub fn descriptor_live(&self, id: DescriptorId) -> bool {
        self.arena.contains(id)
    }

    /// Number of live descriptors (diagnostics).
    pub fn descriptors(&self) -> usize {
        self.arena.len()
    }

    /// Number of hash-table entries (diagnostics).
    pub fn table_entries(&self) -> usize {
        self.table.len()
    }

    /// Remove a foreign-key binding (garbage collection of a freed
    /// actor's name-table entries). Returns the descriptor it pointed
    /// to, if any.
    pub fn unbind(&mut self, key: AddrKey) -> Option<DescriptorId> {
        self.table.remove(&key)
    }

    /// Free a descriptor (the actor it described has been collected).
    pub fn free_descriptor(&mut self, id: DescriptorId) {
        self.arena.free(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::MailAddr;

    #[test]
    fn birthplace_key_resolves_without_hashing() {
        let mut ns = NameServer::new(2);
        let d = ns.alloc_local(ActorId(0), 0);
        let addr = MailAddr::ordinary(2, d);
        assert_eq!(ns.resolve(addr.key), Resolution::Local(ActorId(0)));
        assert_eq!(ns.table_entries(), 0, "no table entry needed at birthplace");
    }

    #[test]
    fn foreign_key_uses_hash_table() {
        let mut ns = NameServer::new(0);
        // Node 0 caches a guess about an actor born on node 3.
        let d = ns.alloc_remote(3, None, 0);
        let key = AddrKey {
            birthplace: 3,
            index: DescriptorId(17),
        };
        assert_eq!(ns.resolve(key), Resolution::Unknown, "not until bound");
        ns.bind(key, d);
        assert_eq!(
            ns.resolve(key),
            Resolution::Remote {
                node: 3,
                remote_index: None
            }
        );
        assert_eq!(ns.table_entries(), 1);
    }

    #[test]
    fn unknown_foreign_key() {
        let ns = NameServer::new(0);
        let key = AddrKey {
            birthplace: 9,
            index: DescriptorId(0),
        };
        assert_eq!(ns.resolve(key), Resolution::Unknown);
    }

    #[test]
    fn caching_remote_index_is_visible() {
        let mut ns = NameServer::new(0);
        let d = ns.alloc_remote(3, None, 0);
        let key = AddrKey {
            birthplace: 3,
            index: DescriptorId(4),
        };
        ns.bind(key, d);
        // NameInfo arrives: cache the remote descriptor index.
        if let Locality::Remote { remote_index, .. } = &mut ns.descriptor_mut(d).locality {
            *remote_index = Some(DescriptorId(4));
        }
        assert_eq!(
            ns.resolve(key),
            Resolution::Remote {
                node: 3,
                remote_index: Some(DescriptorId(4))
            }
        );
    }

    #[test]
    fn two_keys_one_descriptor() {
        // Alias + ordinary key on the creating node resolve identically.
        let mut ns = NameServer::new(5);
        let d = ns.alloc_local(ActorId(1), 0);
        let ordinary = AddrKey {
            birthplace: 5,
            index: d,
        };
        let alias = AddrKey {
            birthplace: 1,
            index: DescriptorId(0),
        };
        ns.bind(alias, d);
        assert_eq!(ns.resolve(ordinary), Resolution::Local(ActorId(1)));
        assert_eq!(ns.resolve(alias), Resolution::Local(ActorId(1)));
    }
}
