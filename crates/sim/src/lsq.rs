//! Split load/store queues with store-to-load forwarding.

use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    seq: u64,
    addr: Option<u64>,
    width: u8,
    value: Option<u64>,
}

/// Malformed load/store-queue state detected on the issue or commit path:
/// which micro-op was involved and what was wrong with the queue entry.
/// The pipeline wraps this into `SimError::Lsq` together with a pipeline
/// snapshot, so injection campaigns report instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsqError {
    /// Sequence number of the offending micro-op.
    pub seq: u64,
    /// What the queue expected and what it found.
    pub detail: String,
}

impl std::fmt::Display for LsqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lsq entry seq {}: {}", self.seq, self.detail)
    }
}

impl std::error::Error for LsqError {}

/// What a load finds when it searches the store queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreSearch {
    /// No older store overlaps: read memory.
    Memory,
    /// An older store to the same address fully covers the load: forward
    /// these bits (already masked to the load width).
    Forward(u64),
    /// An older store overlaps partially (or its data is not ready): the
    /// load must wait until that store commits.
    Conflict {
        /// Sequence number of the blocking store.
        store_seq: u64,
    },
}

/// The load/store queues of the pipeline.
///
/// Stores enter at dispatch and hold address/data once they execute; data
/// is written to memory at commit. Loads may only execute once every older
/// store has a known address (conservative, no memory-dependence
/// speculation); they then either forward from the youngest older
/// matching store or read committed memory.
///
/// # Examples
///
/// ```
/// use regshare_sim::{LoadStoreQueue, StoreSearch};
///
/// let mut lsq = LoadStoreQueue::new(8, 8);
/// lsq.dispatch_store(0);
/// lsq.resolve_store(0, 0x100, 8, 42).unwrap();
/// assert_eq!(lsq.search(2, 0x100, 8), Ok(StoreSearch::Forward(42)));
/// assert_eq!(lsq.search(2, 0x200, 8), Ok(StoreSearch::Memory));
/// ```
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    stores: VecDeque<StoreEntry>,
    loads: VecDeque<u64>, // seqs, for occupancy only
    lq_cap: usize,
    sq_cap: usize,
    /// Sequence number of the oldest queued store whose address is still
    /// unknown, or `None` when every queued store has one: a load may
    /// execute exactly when it is older than this store. Set on
    /// dispatch, advanced when that store resolves, cleared when a squash
    /// removes it.
    oldest_unresolved: Option<u64>,
}

fn ranges_overlap(a: u64, aw: u8, b: u64, bw: u8) -> bool {
    a < b + bw as u64 && b < a + aw as u64
}

impl LoadStoreQueue {
    /// Creates empty queues with the given capacities.
    pub fn new(lq_cap: usize, sq_cap: usize) -> Self {
        LoadStoreQueue {
            stores: VecDeque::new(),
            loads: VecDeque::new(),
            lq_cap,
            sq_cap,
            oldest_unresolved: None,
        }
    }

    /// Whether a load (and/or store) can be dispatched right now.
    pub fn has_room(&self, loads: usize, stores: usize) -> bool {
        self.loads.len() + loads <= self.lq_cap && self.stores.len() + stores <= self.sq_cap
    }

    /// Dispatches a store entry (address/data unknown).
    pub fn dispatch_store(&mut self, seq: u64) {
        self.stores.push_back(StoreEntry {
            seq,
            addr: None,
            width: 0,
            value: None,
        });
        self.oldest_unresolved.get_or_insert(seq);
    }

    /// Dispatches a load entry.
    pub fn dispatch_load(&mut self, seq: u64) {
        self.loads.push_back(seq);
    }

    /// Records a store's address and data after it executes. Errors if
    /// the store is not in the queue.
    pub fn resolve_store(
        &mut self,
        seq: u64,
        addr: u64,
        width: u8,
        value: u64,
    ) -> Result<(), LsqError> {
        // Stores queue in program order, so their seqs are sorted.
        let Ok(i) = self.stores.binary_search_by_key(&seq, |e| e.seq) else {
            return Err(LsqError {
                seq,
                detail: "resolving a store that is not in the queue".into(),
            });
        };
        let e = &mut self.stores[i];
        e.addr = Some(addr);
        e.width = width;
        e.value = Some(value);
        if self.oldest_unresolved == Some(seq) {
            self.oldest_unresolved = self.first_unresolved(i + 1);
        }
        Ok(())
    }

    /// The oldest unresolved store from queue position `from` on.
    fn first_unresolved(&self, from: usize) -> Option<u64> {
        let mut younger = self.stores.range(from..);
        younger.find(|e| e.addr.is_none()).map(|e| e.seq)
    }

    /// True when every store older than `seq` has a resolved address —
    /// the condition for a load at `seq` to execute.
    pub fn older_stores_resolved(&self, seq: u64) -> bool {
        self.oldest_unresolved.is_none_or(|oldest| oldest >= seq)
    }

    /// Searches older stores for one supplying (or blocking) a load of
    /// `width` bytes at `addr`. Errors on a resolved store entry with no
    /// data (malformed forwarding state).
    pub fn search(&self, seq: u64, addr: u64, width: u8) -> Result<StoreSearch, LsqError> {
        // Youngest older store wins.
        for e in self.stores.iter().rev() {
            if e.seq >= seq {
                continue;
            }
            let Some(saddr) = e.addr else {
                return Ok(StoreSearch::Conflict { store_seq: e.seq });
            };
            if !ranges_overlap(addr, width, saddr, e.width) {
                continue;
            }
            if saddr == addr && e.width >= width {
                let Some(bits) = e.value else {
                    return Err(LsqError {
                        seq: e.seq,
                        detail: format!(
                            "store resolved to {saddr:#x}/{} has no data to forward",
                            e.width
                        ),
                    });
                };
                let masked = if width == 8 {
                    bits
                } else {
                    bits & ((1u64 << (width * 8)) - 1)
                };
                return Ok(StoreSearch::Forward(masked));
            }
            return Ok(StoreSearch::Conflict { store_seq: e.seq });
        }
        Ok(StoreSearch::Memory)
    }

    /// Removes a committed store from the queue, returning its
    /// address/width/value for the memory write. Errors if `seq` is not
    /// the oldest store or the entry is unresolved.
    pub fn commit_store(&mut self, seq: u64) -> Result<(u64, u8, u64), LsqError> {
        let Some(e) = self.stores.pop_front() else {
            return Err(LsqError {
                seq,
                detail: "committing store from an empty queue".into(),
            });
        };
        if self.oldest_unresolved == Some(e.seq) {
            // Only a malformed commit (checked below) removes an
            // unresolved store.
            self.oldest_unresolved = self.first_unresolved(0);
        }
        if e.seq != seq {
            return Err(LsqError {
                seq,
                detail: format!("stores must commit in order (queue head is seq {})", e.seq),
            });
        }
        let (Some(addr), Some(value)) = (e.addr, e.value) else {
            return Err(LsqError {
                seq,
                detail: format!(
                    "committing unresolved store (addr {:?}, value {:?})",
                    e.addr, e.value
                ),
            });
        };
        Ok((addr, e.width, value))
    }

    /// Removes a committed load. Errors if `seq` is not the oldest load.
    pub fn commit_load(&mut self, seq: u64) -> Result<(), LsqError> {
        let Some(head) = self.loads.pop_front() else {
            return Err(LsqError {
                seq,
                detail: "committing load from an empty queue".into(),
            });
        };
        if head != seq {
            return Err(LsqError {
                seq,
                detail: format!("loads must commit in order (queue head is seq {head})"),
            });
        }
        Ok(())
    }

    /// Drops every entry younger than `seq` (mis-speculation squash).
    pub fn squash_after(&mut self, seq: u64) {
        while matches!(self.stores.back(), Some(e) if e.seq > seq) {
            self.stores.pop_back();
        }
        // Every store older than the oldest unresolved one is resolved.
        if self.oldest_unresolved.is_some_and(|oldest| oldest > seq) {
            self.oldest_unresolved = None;
        }
        while matches!(self.loads.back(), Some(s) if *s > seq) {
            self.loads.pop_back();
        }
    }

    /// Current store-queue occupancy.
    pub fn stores_len(&self) -> usize {
        self.stores.len()
    }

    /// Current load-queue occupancy.
    pub fn loads_len(&self) -> usize {
        self.loads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_masks_to_load_width() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.dispatch_store(0);
        lsq.resolve_store(0, 0x10, 8, 0xAABB_CCDD_EEFF_1122)
            .unwrap();
        assert_eq!(lsq.search(1, 0x10, 1), Ok(StoreSearch::Forward(0x22)));
        assert_eq!(
            lsq.search(1, 0x10, 4),
            Ok(StoreSearch::Forward(0xEEFF_1122))
        );
        assert_eq!(
            lsq.search(1, 0x10, 8),
            Ok(StoreSearch::Forward(0xAABB_CCDD_EEFF_1122))
        );
    }

    #[test]
    fn unresolved_older_store_blocks() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.dispatch_store(0);
        assert!(!lsq.older_stores_resolved(1));
        assert_eq!(
            lsq.search(1, 0x10, 8),
            Ok(StoreSearch::Conflict { store_seq: 0 })
        );
        lsq.resolve_store(0, 0x999, 8, 1).unwrap();
        assert!(lsq.older_stores_resolved(1));
        assert_eq!(lsq.search(1, 0x10, 8), Ok(StoreSearch::Memory));
    }

    #[test]
    fn partial_overlap_conflicts() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.dispatch_store(0);
        lsq.resolve_store(0, 0x10, 4, 7).unwrap(); // narrower than the load
        assert_eq!(
            lsq.search(1, 0x10, 8),
            Ok(StoreSearch::Conflict { store_seq: 0 })
        );
        // Offset overlap.
        assert_eq!(
            lsq.search(1, 0x12, 8),
            Ok(StoreSearch::Conflict { store_seq: 0 })
        );
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.dispatch_store(0);
        lsq.dispatch_store(1);
        lsq.resolve_store(0, 0x10, 8, 111).unwrap();
        lsq.resolve_store(1, 0x10, 8, 222).unwrap();
        assert_eq!(lsq.search(2, 0x10, 8), Ok(StoreSearch::Forward(222)));
        // A load older than store 1 sees store 0.
        assert_eq!(lsq.search(1, 0x10, 8), Ok(StoreSearch::Forward(111)));
    }

    #[test]
    fn commit_pops_in_order() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.dispatch_store(0);
        lsq.dispatch_load(1);
        lsq.resolve_store(0, 8, 8, 5).unwrap();
        assert_eq!(lsq.commit_store(0).unwrap(), (8, 8, 5));
        lsq.commit_load(1).unwrap();
        assert_eq!(lsq.stores_len(), 0);
        assert_eq!(lsq.loads_len(), 0);
    }

    #[test]
    fn malformed_states_error_with_offending_entry() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        // Resolving an absent store.
        let e = lsq.resolve_store(7, 0x10, 8, 1).unwrap_err();
        assert_eq!(e.seq, 7);
        assert!(e.to_string().contains("not in the queue"));
        // Committing from empty queues.
        assert!(lsq.commit_store(0).unwrap_err().detail.contains("empty"));
        assert!(lsq.commit_load(0).unwrap_err().detail.contains("empty"));
        // Out-of-order commits.
        lsq.dispatch_store(2);
        lsq.dispatch_load(3);
        lsq.resolve_store(2, 0x20, 8, 9).unwrap();
        assert!(lsq.commit_store(5).unwrap_err().detail.contains("in order"));
        assert!(lsq.commit_load(5).unwrap_err().detail.contains("in order"));
        // Committing an unresolved store.
        let mut lsq2 = LoadStoreQueue::new(4, 4);
        lsq2.dispatch_store(0);
        let e = lsq2.commit_store(0).unwrap_err();
        assert_eq!(e.seq, 0);
        assert!(e.detail.contains("unresolved"));
    }

    #[test]
    fn squash_drops_younger_entries() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.dispatch_store(0);
        lsq.dispatch_load(1);
        lsq.dispatch_store(2);
        lsq.dispatch_load(3);
        lsq.squash_after(1);
        assert_eq!(lsq.stores_len(), 1);
        assert_eq!(lsq.loads_len(), 1);
    }

    #[test]
    fn capacity_check() {
        let lsq = LoadStoreQueue::new(1, 1);
        assert!(lsq.has_room(1, 1));
        assert!(!lsq.has_room(2, 0));
    }
}
