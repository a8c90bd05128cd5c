//! Invariant auditing and deliberate corruption for [`ReuseRenamer`].
//!
//! Split out of the main module so the renaming mechanism and its
//! self-checking machinery stay independently readable.

use super::ReuseRenamer;
use crate::{PhysReg, TaggedReg, MAX_SHADOW_CELLS};
use regshare_isa::{ArchReg, RegClass};

/// A deliberate bookkeeping corruption, used by the invariant auditor's
/// self-tests: each kind breaks exactly one invariant that
/// [`crate::Renamer::audit`] must then report with a matching diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Silently drop a register from the integer free list — a physical
    /// register leak.
    LeakPreg,
    /// Advance `x1`'s map-table version tag past its PRT counter — a
    /// stale version tag that no rename could have produced.
    StaleVersionTag,
    /// Add a phantom mapping reference to `x1`'s physical register — a
    /// reference-count off-by-one.
    RefcountOffByOne,
    /// Alias thread 1's `x1` mapping onto thread 0's physical register —
    /// a cross-thread ownership leak (requires `threads >= 2`).
    CrossThreadLeak,
    /// Record a speculation grant on `x1`'s physical register for the
    /// highest version a counter can represent, above its current one —
    /// release feedback for a reuse that never happened.
    SpecGrantAboveVersion,
}

impl ReuseRenamer {
    /// Deliberately corrupts internal bookkeeping (auditor self-tests
    /// only). The corrupted state violates exactly the invariant named by
    /// `kind`; the next [`crate::Renamer::audit`] call must detect it.
    pub fn corrupt(&mut self, kind: CorruptKind) {
        let r1 = ArchReg::new(RegClass::Int, 1);
        let ci = RegClass::Int.index();
        match kind {
            CorruptKind::LeakPreg => {
                let leaked = self.t.free[ci].pop_any();
                debug_assert!(leaked.is_some(), "no free register to leak");
            }
            CorruptKind::StaleVersionTag => {
                let t = self.t.maps[0].get(r1);
                let counter = self.prt[ci].entry(t.preg).counter;
                self.t.maps[0].set(r1, TaggedReg::new(t.class, t.preg, counter + 1));
            }
            CorruptKind::RefcountOffByOne => {
                let t = self.t.maps[0].get(r1);
                self.prt[ci].map_inc(t.preg);
            }
            CorruptKind::CrossThreadLeak => {
                assert!(
                    self.t.threads() >= 2,
                    "cross-thread leak corruption needs at least two threads"
                );
                let stolen = self.t.maps[0].get(r1);
                let old = self.t.maps[1].set(r1, stolen);
                // Keep the reference counts self-consistent so only the
                // ownership invariant trips, not refcount conservation.
                self.prt[ci].map_inc(stolen.preg);
                if self.prt[ci].map_dec(old.preg) == 0 {
                    self.release(old.class, old.preg);
                }
            }
            CorruptKind::SpecGrantAboveVersion => {
                let t = self.t.maps[0].get(r1);
                self.meta[ci][t.preg.0 as usize].spec_dynamic |= 1 << MAX_SHADOW_CELLS;
            }
        }
    }

    /// The full invariant sweep behind [`crate::Renamer::audit`].
    pub(super) fn audit_invariants(&self) -> Result<(), String> {
        for class in RegClass::ALL {
            let ci = class.index();
            let banks = self.t.config.banks(class);
            let total = banks.total();
            let max_version = self.t.config.max_version();
            // Reference-count conservation: every PRT mapping count must
            // equal the references actually held — speculative map-table
            // entries plus the previous mappings kept alive by in-flight
            // rename records (they are decremented at commit).
            let mut expected = vec![0u32; total];
            // Cross-thread ownership: each physical register may be
            // reachable (speculative map or in-flight record) from at
            // most one thread, since reuse candidates are always the
            // renaming thread's own sources.
            let mut owner = vec![usize::MAX; total];
            let claim = |owner: &mut Vec<usize>, i: usize, h: usize| -> Result<(), String> {
                if owner[i] != usize::MAX && owner[i] != h {
                    return Err(format!(
                        "{class}: p{i} is referenced by both thread {} and thread {h} — \
                         a cross-thread register leak",
                        owner[i]
                    ));
                }
                owner[i] = h;
                Ok(())
            };
            for h in 0..self.t.threads() {
                for (_, tag) in self.t.maps[h].iter_class(class) {
                    expected[tag.preg.0 as usize] += 1;
                    claim(&mut owner, tag.preg.0 as usize, h)?;
                }
                for record in self.records[h].iter() {
                    for old_map in [record.dst, record.dst2]
                        .iter()
                        .flatten()
                        .map(|c| c.old_map)
                    {
                        if old_map.class == class {
                            expected[old_map.preg.0 as usize] += 1;
                            claim(&mut owner, old_map.preg.0 as usize, h)?;
                        }
                    }
                }
            }
            let free = self.t.free_bitmap(class)?;
            for i in 0..total {
                let p = PhysReg(i as u16);
                let count = self.prt[ci].mapcount(p) as u32;
                if count != expected[i] {
                    return Err(format!(
                        "{class}: {p} mapping count {count} != {} references held by \
                         the map table and in-flight renames",
                        expected[i]
                    ));
                }
                if free[i] && count != 0 {
                    return Err(format!(
                        "{class}: {p} is on the free list but still mapped {count} time(s)"
                    ));
                }
                if !free[i] && count == 0 {
                    return Err(format!(
                        "{class}: {p} leaked — mapping count is 0 but it is not on the free list"
                    ));
                }
                let counter = self.prt[ci].entry(p).counter;
                if counter > max_version {
                    return Err(format!(
                        "{class}: {p} version counter {counter} exceeds the maximum {max_version}"
                    ));
                }
                // Speculation grants name versions a reuse created: none
                // above the register's current version while it is in use.
                let meta = &self.meta[ci][i];
                let granted = u16::from(meta.spec_dynamic | meta.spec_static);
                if !free[i] && granted >> (counter + 1) != 0 {
                    return Err(format!(
                        "{class}: {p} carries a speculation grant (versions {granted:#010b}) \
                         above its PRT version {counter}"
                    ));
                }
            }
            // Version-tag sanity: no map may hold a version the PRT never
            // issued, nor one without a backing shadow cell.
            for h in 0..self.t.threads() {
                for (table, name) in [
                    (&self.t.maps[h], "map table"),
                    (&self.t.retire_maps[h], "retire map"),
                ] {
                    for (r, tag) in table.iter_class(class) {
                        let counter = self.prt[ci].entry(tag.preg).counter;
                        if tag.version > counter {
                            return Err(format!(
                                "{class}: {name} entry {r} (thread {h}) holds stale version \
                                 tag {tag} beyond PRT counter {counter}"
                            ));
                        }
                        let cells = banks.shadow_cells_of(tag.preg);
                        if tag.version > cells {
                            return Err(format!(
                                "{class}: {name} entry {r} (thread {h}) version {} exceeds \
                                 the {cells} shadow cell(s) of {}",
                                tag.version, tag.preg
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
