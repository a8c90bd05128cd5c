//! Behavioural tests of the proposed sharing scheme ([`ReuseRenamer`]),
//! exercised through the public [`Renamer`] interface: reuse decisions,
//! predictor training, repair micro-ops, squash/commit bookkeeping, and
//! the auditor's corruption self-checks.

use regshare_core::{BankConfig, CorruptKind, Renamer, RenamerConfig, ReuseRenamer, Uop, UopKind};
use regshare_isa::{reg, Inst, Opcode, RegClass};

fn renamer() -> ReuseRenamer {
    ReuseRenamer::new(RenamerConfig::small_test())
}

/// Renames the I1/I4 pair (define r1; redefine r1 using it) twice.
/// The first round trains the predictor; the second reuses.
fn train_and_reuse(r: &mut ReuseRenamer) -> (Uop, Uop) {
    let i1 = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
    let i4 = Inst::rrr(Opcode::Add, reg::x(1), reg::x(1), reg::x(4));
    let mut seq = 0;
    for _ in 0..2 {
        for (pc, inst) in [(0u64, &i1), (4u64, &i4)] {
            let uops = r.rename(seq, pc, inst).unwrap();
            seq += uops.len() as u64;
        }
    }
    // Repeat once more and capture the pair.
    let a = r.rename(seq, 0, &i1).unwrap()[0];
    let b = r.rename(seq + 1, 4, &i4).unwrap()[0];
    (a, b)
}

#[test]
fn blocked_reuse_trains_predictor_then_reuses() {
    let mut r = renamer();
    assert_eq!(r.predictor().predict(0), 0);
    let (a, b) = train_and_reuse(&mut r);
    // After training, I1's destination lives in a shadow bank and I4
    // reuses it.
    let da = a.dst.unwrap();
    let db = b.dst.unwrap();
    assert_eq!(da.preg, db.preg);
    assert_eq!(db.version, da.version + 1);
    assert!(r.stats().reuses >= 1);
    assert!(r.stats().blocked_reuses >= 1);
    assert!(r.stats().safe_reuses >= 1);
}

#[test]
fn reuse_does_not_cross_register_classes() {
    let mut r = renamer();
    // cvt.i.f reads an int register and writes an fp register; even a
    // first-and-last use must not share across files.
    let c = Inst::rr(Opcode::CvtIf, reg::f(1), reg::x(1));
    let u = r.rename(0, 0, &c).unwrap()[0];
    assert_eq!(u.dst.unwrap().class, RegClass::Fp);
    assert_eq!(u.dst.unwrap().version, 0);
    assert_eq!(r.stats().reuses, 0);
}

#[test]
fn second_consumer_cannot_reuse() {
    let mut r = renamer();
    // x2 is read by a store (first consumer), then by a redefining add:
    // the add is no longer the first consumer, so no reuse.
    let s = Inst::store(Opcode::St, reg::x(2), reg::x(3), 0);
    r.rename(0, 0, &s).unwrap();
    let a = Inst::rrr(Opcode::Add, reg::x(2), reg::x(2), reg::x(4));
    let u = r.rename(1, 4, &a).unwrap()[0];
    assert_eq!(u.dst.unwrap().version, 0);
    assert_eq!(r.stats().reuses, 0);
}

#[test]
fn counter_saturation_limits_chain_length() {
    let mut cfg = RenamerConfig::small_test();
    cfg.counter_bits = 1; // versions saturate at 1
                          // Give bank 3 plenty of room so capacity is counter-limited.
    cfg.int_banks = BankConfig::new(vec![33, 0, 0, 8]);
    cfg.fp_banks = cfg.int_banks.clone();
    let mut r = ReuseRenamer::new(cfg);
    let i = Inst::rrr(Opcode::Add, reg::x(1), reg::x(1), reg::x(2));
    let mut seq = 0u64;
    let mut versions = Vec::new();
    // Train, then chain.
    for pc in [0u64; 6] {
        let u = r.rename(seq, pc, &i).unwrap();
        versions.push(u.last().unwrap().dst.unwrap().version);
        seq += u.len() as u64;
    }
    // With a 1-bit counter no version ever exceeds 1.
    assert!(versions.iter().all(|v| *v <= 1));
}

#[test]
fn speculative_reuse_and_repair_on_second_read() {
    let mut r = renamer();
    // Train pc=0 to allocate with shadow cells.
    let def = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
    let use_nonredef = Inst::rrr(Opcode::Add, reg::x(5), reg::x(1), reg::x(4));
    let mut seq = 0u64;
    for _ in 0..2 {
        for (pc, inst) in [(0u64, &def), (4u64, &use_nonredef)] {
            let uops = r.rename(seq, pc, inst).unwrap();
            seq += uops.len() as u64;
        }
    }
    // Now: def allocates a shadow-bank register for r1; the next use
    // (not redefining) speculatively reuses it for r5.
    let d = r.rename(seq, 0, &def).unwrap()[0];
    seq += 1;
    let u = r.rename(seq, 4, &use_nonredef).unwrap()[0];
    seq += 1;
    let du = u.dst.unwrap();
    assert_eq!(du.preg, d.dst.unwrap().preg, "speculative reuse expected");
    assert!(r.stats().speculative_reuses >= 1);
    // A second consumer of r1 arrives: the mapping is stale -> repair.
    let second = Inst::rrr(Opcode::Add, reg::x(6), reg::x(1), reg::x(4));
    let uops = r.rename(seq, 8, &second).unwrap();
    assert_eq!(uops.len(), 2);
    assert_eq!(uops[0].kind, UopKind::RepairMove);
    // The repair reads the stale version and writes a fresh register.
    assert_eq!(uops[0].srcs[0].unwrap(), d.dst.unwrap());
    assert_eq!(uops[0].dst.unwrap().version, 0);
    // The main op consumes the repaired register.
    assert_eq!(uops[1].srcs[0].unwrap(), uops[0].dst.unwrap());
    assert_eq!(r.stats().repairs, 1);
}

#[test]
fn squash_undoes_reuse_and_requests_recover() {
    let mut r = renamer();
    let (a, b) = train_and_reuse(&mut r);
    let before_map = r.map().get(reg::x(1));
    assert_eq!(before_map, b.dst.unwrap());
    let out = r.squash_after(b.seq - 1).clone();
    assert_eq!(out.undone, 1);
    assert_eq!(r.map().get(reg::x(1)), a.dst.unwrap());
    // The squashed reuse rolled a version back: recover candidate.
    assert_eq!(out.recovers.len(), 1);
    assert_eq!(out.recovers[0], a.dst.unwrap());
    // PRT counter rolled back, read bit restored to unread... no:
    // x1's value was read by the squashed instruction only, so the
    // read bit must be clear again.
    let prt = r.prt(RegClass::Int).entry(a.dst.unwrap().preg);
    assert_eq!(prt.counter, a.dst.unwrap().version);
    assert!(!prt.read);
}

#[test]
fn squash_undoes_allocation_and_frees() {
    let mut r = renamer();
    let free_before = r.free_regs(RegClass::Int);
    let i = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
    r.rename(7, 0, &i).unwrap();
    assert_eq!(r.free_regs(RegClass::Int), free_before - 1);
    r.squash_after(6);
    assert_eq!(r.free_regs(RegClass::Int), free_before);
}

#[test]
fn commit_of_chain_releases_nothing_until_chain_dies() {
    let mut r = renamer();
    let (_a, b) = train_and_reuse(&mut r);
    let releases_before = r.stats().releases;
    // Commit everything renamed so far (seqs 0..=b.seq).
    for s in 0..=b.seq {
        r.commit(s);
    }
    // The chained register must NOT be released: r1 still maps to it.
    let preg = b.dst.unwrap().preg;
    assert!(r.prt(RegClass::Int).mapcount(preg) >= 1);
    // Redefine r1 with a value that cannot be reused (different class
    // source is irrelevant; use li which has no sources).
    let li = Inst::ri(Opcode::Li, reg::x(1), 9);
    let u = r.rename(b.seq + 1, 100, &li).unwrap()[0];
    assert_eq!(u.dst.unwrap().version, 0); // fresh allocation
    r.commit(b.seq + 1);
    // Now the chain register is dead and must have been released.
    assert!(r.stats().releases > releases_before);
    assert_eq!(r.prt(RegClass::Int).mapcount(preg), 0);
}

#[test]
fn stall_rolls_back_partial_state() {
    // 33 registers: after initial mappings a single register is free.
    let mut cfg = RenamerConfig::small_test();
    cfg.int_banks = BankConfig::new(vec![33]);
    cfg.fp_banks = BankConfig::new(vec![33]);
    let mut r = ReuseRenamer::new(cfg);
    let i = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
    assert!(r.rename(0, 0, &i).is_some());
    // Next rename must stall: no free registers, no shadow cells.
    let j = Inst::rrr(Opcode::Add, reg::x(4), reg::x(5), reg::x(6));
    assert!(r.rename(1, 4, &j).is_none());
    // The stall must not have left read bits set.
    let t5 = r.map().get(reg::x(5));
    assert!(!r.prt(RegClass::Int).entry(t5.preg).read);
    assert_eq!(r.stats().stalls, 1);
    // Committing the first rename frees a register and unblocks.
    r.commit(0);
    assert!(r.rename(1, 4, &j).is_some());
}

#[test]
fn chain_lengths_recorded_at_release() {
    let mut r = renamer();
    let (_a, b) = train_and_reuse(&mut r);
    for s in 0..=b.seq {
        r.commit(s);
    }
    let li = Inst::ri(Opcode::Li, reg::x(1), 9);
    r.rename(b.seq + 1, 100, &li).unwrap();
    r.commit(b.seq + 1);
    // The last released register carried one reuse.
    assert!(r.stats().chain_lengths.count(1) >= 1);
}

#[test]
fn duplicate_source_operands_mark_one_read() {
    let mut r = renamer();
    let i = Inst::rrr(Opcode::Mul, reg::x(5), reg::x(1), reg::x(1));
    r.rename(0, 0, &i).unwrap();
    let t = r.map().get(reg::x(1));
    assert!(r.prt(RegClass::Int).entry(t.preg).read);
}

#[test]
fn audit_is_clean_across_rename_squash_commit() {
    let mut r = renamer();
    r.audit().unwrap();
    let (_a, b) = train_and_reuse(&mut r);
    r.audit().unwrap();
    r.squash_after(b.seq - 1);
    r.audit().unwrap();
    for s in 0..b.seq {
        r.commit(s);
    }
    r.audit().unwrap();
}

#[test]
fn each_corruption_kind_is_detected() {
    for (kind, needle) in [
        (CorruptKind::LeakPreg, "leak"),
        (CorruptKind::StaleVersionTag, "stale version"),
        (CorruptKind::RefcountOffByOne, "mapping count"),
        (CorruptKind::SpecGrantAboveVersion, "speculation grant"),
    ] {
        let mut r = renamer();
        r.audit().unwrap();
        r.corrupt(kind);
        let err = r.audit().unwrap_err();
        assert!(err.contains(needle), "{kind:?} diagnostic was: {err}");
    }
}

#[test]
fn fig12_accounting_accumulates() {
    let mut r = renamer();
    let (_a, b) = train_and_reuse(&mut r);
    for s in 0..=b.seq {
        r.commit(s);
    }
    let li = Inst::ri(Opcode::Li, reg::x(1), 9);
    r.rename(b.seq + 1, 100, &li).unwrap();
    r.commit(b.seq + 1);
    assert!(r.predictor().stats().total() >= 1);
}
