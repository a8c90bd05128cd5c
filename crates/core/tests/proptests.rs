//! Property-based tests for the core renaming structures.

use proptest::prelude::*;
use regshare_core::{
    BankConfig, FreeList, PhysReg, Prt, RegFile, Renamer, RenamerConfig, ReuseRenamer,
};
use regshare_isa::{reg, Inst, Opcode};
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Writing a version chain and recovering to any earlier version
    /// always returns exactly the value that version produced.
    #[test]
    fn regfile_chain_then_recover_returns_exact_values(
        values in prop::collection::vec(any::<u64>(), 1..8),
        recover_to in 0usize..8,
    ) {
        let depth = values.len() - 1; // versions 0..=depth
        let mut sizes = vec![0usize; depth + 1];
        sizes[depth] = 1; // one register with `depth` shadow cells
        if depth == 0 {
            sizes[0] = 1;
        }
        let banks = BankConfig::new(sizes);
        let mut rf = RegFile::new(&banks);
        let p = PhysReg(0);
        for (v, bits) in values.iter().enumerate() {
            rf.write(p, v as u8, *bits);
        }
        // Every version is still readable.
        for (v, bits) in values.iter().enumerate() {
            prop_assert_eq!(rf.read_version(p, v as u8), *bits);
        }
        // Recovering to an arbitrary earlier version restores its value.
        let target = recover_to.min(values.len() - 1);
        rf.recover(p, target as u8);
        prop_assert_eq!(rf.read_current(p), values[target]);
    }

    /// Random alloc/free interleavings never hand out a register twice
    /// and conserve the total.
    #[test]
    fn free_list_never_double_allocates(
        ops in prop::collection::vec((any::<bool>(), 0u8..4), 1..200),
        sizes in (1usize..10, 0usize..10, 0usize..10, 0usize..10),
    ) {
        let banks = BankConfig::new(vec![sizes.0, sizes.1, sizes.2, sizes.3]);
        let total = banks.total();
        let mut fl = FreeList::new(&banks);
        let mut held: Vec<PhysReg> = Vec::new();
        let mut held_set: HashSet<PhysReg> = HashSet::new();
        for (alloc, bank) in ops {
            if alloc {
                if let Some(p) = fl.alloc(bank) {
                    prop_assert!(held_set.insert(p), "double allocation of {p}");
                    held.push(p);
                }
            } else if let Some(p) = held.pop() {
                held_set.remove(&p);
                fl.free(p);
            }
            prop_assert_eq!(fl.free_total() + held.len(), total);
        }
    }

    /// Bump/rollback on the PRT is an exact inverse.
    #[test]
    fn prt_bump_rollback_roundtrip(
        bumps in 1u8..=7,
        max_version in 1u8..=7,
    ) {
        let mut prt = Prt::new(4, max_version);
        let p = PhysReg(2);
        let mut trail = Vec::new();
        for _ in 0..bumps {
            if !prt.can_bump(p) {
                break;
            }
            let before = prt.entry(p);
            prt.mark_read(p);
            let read_before_bump = prt.entry(p).read;
            let v = prt.bump(p);
            trail.push((before.counter, read_before_bump, v));
        }
        for (counter, read, _v) in trail.into_iter().rev() {
            prt.rollback(p, counter, read);
            // read bit restored by the caller's read-mark undo; rollback
            // itself restores what it is told.
            prt.set_read(p, false);
            prop_assert_eq!(prt.entry(p).counter, counter);
        }
        prop_assert_eq!(prt.entry(p).counter, 0);
    }

    /// Post-increment renames (dual destination) keep the free-register
    /// conservation invariant under random commit/squash interleavings.
    #[test]
    fn dual_destination_renames_conserve_registers(
        ops in prop::collection::vec((0u8..3, 0u8..8), 1..120),
    ) {
        let mut r = ReuseRenamer::new(RenamerConfig::small_test());
        let total = 40; // small_test: 34/2/2/2
        let mut in_flight: Vec<u64> = Vec::new();
        let mut next_seq = 1u64;
        let mut pc = 0u64;
        for (kind, n) in ops {
            match kind {
                0 => {
                    // ld.post xd, [xb], 8 with xd != xb.
                    let xd = reg::x(n % 8);
                    let xb = reg::x(8 + n % 8);
                    let inst = Inst::load_post(Opcode::LdPost, xd, xb, 8);
                    pc += 1;
                    if let Some(uops) = r.rename(next_seq, pc, &inst) {
                        for u in &uops {
                            in_flight.push(u.seq);
                        }
                        next_seq += uops.len() as u64;
                    }
                }
                1 => {
                    if !in_flight.is_empty() {
                        let seq = in_flight.remove(0);
                        r.commit(seq);
                    }
                }
                _ => {
                    let keep = in_flight.len() / 2;
                    let boundary = if keep == 0 {
                        in_flight.first().map(|s| s - 1).unwrap_or(0)
                    } else {
                        in_flight[keep - 1]
                    };
                    r.squash_after(boundary);
                    in_flight.truncate(keep);
                }
            }
            let free = r.free_regs(regshare_isa::RegClass::Int);
            let in_use: usize = r
                .in_use_per_bank(regshare_isa::RegClass::Int)
                .iter()
                .sum();
            prop_assert_eq!(free + in_use, total);
        }
    }
}

#[test]
fn post_increment_rename_reuses_base_register() {
    // After predictor training, `ld.post xd, [xb], 8` keeps xb's chain in
    // one physical register (safe reuse of the base).
    let mut r = ReuseRenamer::new(RenamerConfig::small_test());
    let inst = Inst::load_post(Opcode::LdPost, reg::x(1), reg::x(2), 8);
    let mut seq = 1u64;
    let mut last_dst2 = None;
    let mut reused_any = false;
    for i in 0..8 {
        let uops = r.rename(seq, 7, &inst).expect("plenty of registers");
        let main = uops.last().expect("main uop");
        let d2 = main.dst2.expect("post-increment has a writeback tag");
        if let Some(prev) = last_dst2 {
            let prev: regshare_core::TaggedReg = prev;
            if d2.preg == prev.preg && d2.version == prev.version + 1 {
                reused_any = true;
            }
        }
        last_dst2 = Some(d2);
        for u in &uops {
            seq = u.seq + 1;
        }
        for u in &uops {
            r.commit(u.seq);
        }
        let _ = i;
    }
    assert!(reused_any, "base-register chain never shared a register");
    assert!(r.stats().safe_reuses >= 1);
}

#[test]
fn post_increment_store_renames_only_the_base() {
    let mut r = ReuseRenamer::new(RenamerConfig::small_test());
    let inst = Inst::store_post(Opcode::StPost, reg::x(1), reg::x(2), 8);
    let uops = r.rename(1, 0, &inst).expect("rename");
    let main = uops.last().expect("main uop");
    assert!(main.dst.is_none());
    assert!(main.dst2.is_some());
}
