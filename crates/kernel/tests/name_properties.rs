//! Randomized property tests over the name server and epoch-based gossip
//! repair — the §4 invariants the whole delivery algorithm rests on.
//!
//! Inputs come from the workspace's deterministic [`SplitMix64`] stream
//! (seeded per case), keeping the suite free of external dependencies;
//! failures reproduce from the printed case number.

use hal_des::SplitMix64;
use hal_kernel::addr::{ActorId, AddrKey, DescriptorId, MailAddr};
use hal_kernel::descriptor::Locality;
use hal_kernel::name_server::{NameServer, Resolution};

fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

/// Birthplace keys resolve from their descriptor index with the hash
/// table empty; a foreign key resolves only once it is bound.
#[test]
fn lookup_path_discipline() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0x4A_0001 + case);
        let me = range(&mut rng, 0, 8) as u16;
        let n_local = range(&mut rng, 0, 20) as usize;
        let n_foreign = range(&mut rng, 0, 20) as usize;

        let mut ns = NameServer::new(me);
        let mut local = Vec::new();
        for i in 0..n_local {
            let d = ns.alloc_local(ActorId(i as u32), 0);
            local.push((AddrKey { birthplace: me, index: d }, ActorId(i as u32)));
        }
        for &(k, a) in &local {
            assert_eq!(ns.resolve(k), Resolution::Local(a), "case {case}");
        }
        assert_eq!(ns.table_entries(), 0, "case {case}: birthplace keys need no entry");
        let mut foreign_keys = Vec::new();
        for _ in 0..n_foreign {
            let node = range(&mut rng, 0, 8) as u16;
            let idx = range(&mut rng, 0, 40) as u32;
            if node == me {
                continue; // foreign means not the birthplace
            }
            let key = AddrKey { birthplace: node, index: DescriptorId(idx) };
            if !foreign_keys.contains(&key) {
                assert_eq!(ns.resolve(key), Resolution::Unknown, "case {case}: unbound");
            }
            let d = ns.alloc_remote(node, None, 0);
            ns.bind(key, d);
            let believed = Resolution::Remote { node, remote_index: None };
            assert_eq!(ns.resolve(key), believed, "case {case}");
            foreign_keys.push(key);
        }
        for &(k, a) in &local {
            assert_eq!(ns.resolve(k), Resolution::Local(a), "case {case}");
        }
    }
}

/// Epoch discipline: applying gossip in any order leaves each descriptor
/// holding the belief from the *highest* epoch seen.
#[test]
fn gossip_is_order_independent_under_epochs() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0x4A_0002 + case);
        let n = range(&mut rng, 1, 40) as usize;
        let updates: Vec<(u16, u32)> = (0..n)
            .map(|_| (range(&mut rng, 0, 8) as u16, range(&mut rng, 0, 1000) as u32))
            .collect();
        // Simulate repair_descriptor's rule on a single Remote entry:
        // overwrite iff epoch >= current.
        let apply = |order: &[(u16, u32)]| {
            let mut node = 99u16;
            let mut epoch = 0u32;
            for &(n, e) in order {
                if e >= epoch {
                    node = n;
                    epoch = e;
                }
            }
            (node, epoch)
        };
        let (_, max_epoch) = apply(&updates);
        let mut shuffled = updates.clone();
        shuffled.reverse();
        let (_, rev_epoch) = apply(&shuffled);
        // The resulting epoch is order-independent (the node may differ
        // among equal-epoch claims, which are by construction the same
        // physical arrival in the real system).
        assert_eq!(max_epoch, rev_epoch, "case {case}");
        assert_eq!(
            max_epoch,
            updates.iter().map(|&(_, e)| e).max().unwrap(),
            "case {case}"
        );
    }
}

/// Alias and ordinary keys resolve to the same actor once bound.
#[test]
fn alias_interchangeability() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0x4A_0003 + case);
        let me = range(&mut rng, 0, 8) as u16;
        let requester = range(&mut rng, 0, 8) as u16;
        let aid = range(&mut rng, 0, 100) as u32;
        if me == requester {
            continue; // aliases exist only for genuinely remote creation
        }
        let mut ns = NameServer::new(me);
        let d = ns.alloc_local(ActorId(aid), 0);
        let ordinary = MailAddr::ordinary(me, d);
        let alias = MailAddr::alias(requester, DescriptorId(0), me, hal_kernel::BehaviorId(1));
        ns.bind(alias.key, d);
        assert_eq!(ns.resolve(ordinary.key), Resolution::Local(ActorId(aid)), "case {case}");
        assert_eq!(ns.resolve(alias.key), Resolution::Local(ActorId(aid)), "case {case}");
        assert_eq!(
            alias.default_route(),
            me,
            "case {case}: alias routes to the creation node"
        );
    }
}

/// Descriptor updates through migrations always leave a resolvable chain
/// ending wherever the last migration went.
#[test]
fn migration_chain_resolution() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0x4A_0004 + case);
        let hops = range(&mut rng, 1, 10) as usize;
        let path: Vec<u16> = (0..hops).map(|_| range(&mut rng, 1, 6) as u16).collect();

        let mut ns = NameServer::new(0);
        let d = ns.alloc_local(ActorId(0), 0);
        let key = AddrKey { birthplace: 0, index: d };
        // Actor leaves node 0 along `path`; node 0 keeps updating its
        // forward pointer like migrate_out does.
        let mut epoch = 0;
        for &hop in &path {
            epoch += 1;
            let desc = ns.descriptor_mut(d);
            desc.locality = Locality::Remote { node: hop, remote_index: None };
            desc.epoch = epoch;
        }
        match ns.resolve(key) {
            Resolution::Remote { node, .. } => {
                assert_eq!(node, *path.last().unwrap(), "case {case}")
            }
            other => panic!("case {case}: expected Remote, got {other:?}"),
        }
        assert_eq!(ns.descriptor(d).epoch, path.len() as u32, "case {case}");
    }
}
