//! The load/store queue's cached "oldest unresolved store" against the
//! scan it replaces: over random dispatch, resolve, commit and squash
//! schedules, `older_stores_resolved` must answer every load position
//! exactly as a walk over the queued stores would.

use proptest::prelude::*;
use regshare_sim::LoadStoreQueue;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
enum Op {
    /// Dispatch a store (address unknown).
    Dispatch,
    /// Resolve the `k`-th queued store (modulo the queue length).
    Resolve(u8),
    /// Commit the oldest store if it is resolved, as retirement does.
    Commit,
    /// Squash everything younger than the `k`-th queued store.
    Squash(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..1u8).prop_map(|_| Op::Dispatch),
        (0..16u8).prop_map(Op::Resolve),
        (0..1u8).prop_map(|_| Op::Commit),
        (0..16u8).prop_map(Op::Squash),
    ]
}

/// The scan the cache replaces: every queued store older than `seq` has
/// an address.
fn scan(mirror: &VecDeque<(u64, bool)>, seq: u64) -> bool {
    mirror
        .iter()
        .take_while(|(s, _)| *s < seq)
        .all(|(_, resolved)| *resolved)
}

proptest! {
    #[test]
    fn cached_check_matches_the_store_queue_scan(
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        let mut lsq = LoadStoreQueue::new(64, 64);
        // (seq, resolved) of every queued store, oldest first.
        let mut mirror: VecDeque<(u64, bool)> = VecDeque::new();
        let mut next_seq = 0u64;
        for op in ops {
            match op {
                Op::Dispatch => {
                    lsq.dispatch_store(next_seq);
                    mirror.push_back((next_seq, false));
                    // Loads and squashes leave gaps between store seqs.
                    next_seq += 1 + next_seq % 3;
                }
                Op::Resolve(k) => {
                    if !mirror.is_empty() {
                        let i = k as usize % mirror.len();
                        let seq = mirror[i].0;
                        lsq.resolve_store(seq, 8 * seq, 8, seq).unwrap();
                        mirror[i].1 = true;
                    }
                }
                Op::Commit => {
                    if let Some(&(seq, true)) = mirror.front() {
                        prop_assert_eq!(lsq.commit_store(seq).unwrap(), (8 * seq, 8, seq));
                        mirror.pop_front();
                    }
                }
                Op::Squash(k) => {
                    let target = mirror.get(k as usize).map_or(next_seq, |&(s, _)| s);
                    lsq.squash_after(target);
                    while mirror.back().is_some_and(|&(s, _)| s > target) {
                        mirror.pop_back();
                    }
                }
            }
            prop_assert_eq!(lsq.stores_len(), mirror.len());
            for seq in 0..=next_seq + 1 {
                prop_assert_eq!(lsq.older_stores_resolved(seq), scan(&mirror, seq));
            }
        }
    }
}
