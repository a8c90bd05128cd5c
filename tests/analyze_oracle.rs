//! Static analyzer vs. dynamic execution: the linter must accept every
//! program the workload generators produce, and the static sharing
//! bounds must bracket the dynamically measured single-use fraction on
//! every kernel.

use proptest::prelude::*;
use regshare::analyze::dataflow::MAX_SAT;
use regshare::analyze::{
    classify, classify_with_loops, lint_program, oracle_check, Cfg, Classification, SiteClass,
};
use regshare::isa::{trace_values, DefSlot, Machine, Program, StopReason};
use regshare::workloads::all_kernels;
use regshare::workloads::analysis::Dataflow;
use regshare::workloads::synthetic::{generate, SyntheticConfig};
use std::collections::HashMap;

/// Workload sizing passed to `Kernel::program`.
const SCALE: u64 = 8_000;

/// Instruction budget for functional runs. Kernels sized at [`SCALE`]
/// retire on the order of `SCALE` instructions but only halt at a loop
/// boundary, so the budget is generously larger — the oracle's soundness
/// checks need complete traces.
const BUDGET: u64 = 64 * SCALE;

#[test]
fn linter_accepts_every_kernel() {
    let mut failures = Vec::new();
    for k in all_kernels() {
        let program = k.program(SCALE);
        let diags = lint_program(&program);
        if !diags.is_empty() {
            failures.push(format!("{}: {diags:?}", k.name));
        }
    }
    assert!(
        failures.is_empty(),
        "linter flagged shipping kernels:\n{}",
        failures.join("\n")
    );
}

#[test]
fn static_bounds_bracket_dynamic_single_use_on_every_kernel() {
    for k in all_kernels() {
        let program = k.program(SCALE);
        let report = oracle_check(&program, BUDGET).expect("kernel executes");
        assert!(
            report.trace_complete,
            "{}: kernel did not halt within {BUDGET} instructions",
            k.name
        );
        assert!(
            report.violations.is_empty(),
            "{}: static/dynamic disagreement: {:?}",
            k.name,
            report.violations
        );
        let lower = report.lower_bound_fraction();
        let single = report.single_use_fraction();
        let upper = report.upper_bound_fraction();
        assert!(
            lower <= single + 1e-12 && single <= upper + 1e-12,
            "{}: bounds do not bracket: lower {lower:.4} single {single:.4} upper {upper:.4}",
            k.name
        );

        // The value replay the oracle and Figs. 1–3 share must count
        // what the brute-force replay counts, value by value.
        let (trace, _) = Machine::new(program.clone())
            .run_trace(BUDGET)
            .expect("kernel executes");
        let mut replayed: HashMap<(usize, DefSlot), Vec<u32>> = HashMap::new();
        for v in trace_values(trace.iter().map(|r| &r.inst)) {
            replayed
                .entry((trace[v.producer].pc as usize, v.slot))
                .or_default()
                .push(v.consumers);
        }
        assert!(
            replayed == brute_force_counts(&program, BUDGET).0,
            "{}: the value replay disagrees with the brute-force counts",
            k.name
        );
    }
}

/// Site classes in the column order of [`GOLDEN_TABLE`].
const CLASSES: [SiteClass; 7] = [
    SiteClass::Dead,
    SiteClass::SingleSafeReuse,
    SiteClass::SingleNeedsPredictor,
    SiteClass::Unknown,
    SiteClass::MultiConsumer,
    SiteClass::AtMostOnce,
    SiteClass::NeverSingle,
];

/// Per kernel at [`SCALE`], running [`SCALE`] instructions as the
/// figures do: instructions, destinations, single-consumer values
/// (redefining, other) and sole consumers; the consumer histogram
/// (0..=6, then more); the reused destinations at chain limits 1, 2, 3
/// and unlimited; then the site census of `classify` and of
/// `classify_with_loops` in [`CLASSES`] order.
const GOLDEN_TABLE: &str = "\
saxpy     5336 5334 1778 1778 2666 | 2 3556 1775 0 0 0 0 1 | 1334 1482 1556 1778 | 0 4 2 5 1 0 0 | 0 4 2 4 1 1 0
fir       7639 7274 3269 3269 3269 | 2 6538 362 0 0 0 0 372 | 3088 3148 3179 3269 | 0 11 9 12 2 0 0 | 0 11 9 11 2 1 0
dct       7591 7301 2338 4386 2338 | 34 6724 255 0 0 0 0 288 | 2210 2253 2274 2338 | 0 12 17 6 2 0 0 | 0 12 17 5 2 1 0
matmul    6984 7733 3713 2723 3731 | 256 6436 897 16 112 0 0 16 | 2579 2963 3219 3731 | 0 9 7 6 2 0 0 | 0 9 7 4 2 2 0
horner    7569 7567 6218 446 6218 | 2 6664 443 0 0 0 0 458 | 3110 4146 4664 6218 | 0 16 1 17 2 0 0 | 0 16 1 15 2 2 0
stencil   7279 6550 2910 2183 2910 | 2 5093 726 0 727 0 0 2 | 2547 2668 2729 2910 | 0 6 3 5 2 0 0 | 0 6 3 4 2 1 0
options   5617 6015 3802 802 4002 | 4 4604 1199 0 0 200 0 8 | 2402 2938 3402 4002 | 0 21 4 11 9 0 0 | 0 21 4 7 9 4 0
fft       8000 6888 1214 1615 1216 | 104 2829 3313 565 22 6 9 40 | 1022 1095 1119 1215 | 0 12 10 12 21 0 0 | 0 12 10 8 21 4 0
sort      6446 3773 1125 525 1293 | 8 1650 1291 664 96 4 8 52 | 941 1229 1245 1293 | 0 8 4 8 4 0 0 | 0 8 4 6 4 2 0
hashjoin  6166 5502 2200 1688 2787 | 2 3888 1550 48 11 0 0 3 | 1944 2105 2659 2787 | 0 7 2 9 1 0 0 | 0 7 2 7 1 2 0
pchase    6672 5337 1335 1335 1335 | 2 2670 2665 0 0 0 0 0 | 1335 1335 1335 1335 | 0 3 1 4 1 0 0 | 0 3 1 3 1 1 0
crc32     7276 4809 890 1452 890 | 2 2342 2464 0 0 0 0 1 | 890 890 890 890 | 0 4 2 7 2 0 0 | 0 4 2 7 2 0 0
rle       7125 4451 777 1002 777 | 1 1779 2243 255 36 41 29 67 | 446 596 660 777 | 0 2 3 5 4 0 0 | 0 2 3 5 4 0 0
bitcount  8000 4832 1610 1610 3171 | 4 3220 47 1561 0 0 0 0 | 2367 2635 2769 3171 | 0 3 1 7 0 0 0 | 0 3 1 4 0 3 0
adpcm     8000 5472 1208 2551 2151 | 85 3759 604 191 600 0 231 2 | 1265 1824 1906 2151 | 0 6 13 22 8 0 0 | 0 6 13 21 8 1 0
sad       8000 7836 2132 3193 3193 | 34 5325 2201 14 0 1 0 261 | 2655 3176 3193 3193 | 0 20 27 8 19 0 0 | 0 20 27 8 19 0 0
gmm       8000 9811 4844 3910 5778 | 67 8754 989 0 0 0 0 1 | 3415 4845 5079 5778 | 0 10 8 8 1 0 0 | 0 10 8 5 1 3 0
dnn       5031 5990 3009 1986 3009 | 34 4995 960 0 0 0 0 1 | 2003 2359 2538 3009 | 0 9 3 8 0 0 0 | 0 9 3 4 0 4 0
";

fn census(c: &Classification) -> String {
    let counts: Vec<String> = CLASSES.iter().map(|&k| c.count(k).to_string()).collect();
    counts.join(" ")
}

/// The Fig. 1/2 profile, the Fig. 3 reuse counts and both site
/// censuses of every kernel, against [`GOLDEN_TABLE`]; a mismatch prints
/// the whole table as computed.
#[test]
fn dataflow_and_site_classes_match_the_golden_table() {
    let mut table = String::new();
    for k in all_kernels() {
        let program = k.program(SCALE);
        let dataflow = Dataflow::run(&program, SCALE);
        let p = dataflow.profile();
        let hist: Vec<String> = (0..=6)
            .map(|v| p.consumers.count(v))
            .chain([p.consumers.overflow()])
            .map(|n| n.to_string())
            .collect();
        let reused: Vec<String> = dataflow
            .reused(&[1, 2, 3, u64::MAX])
            .iter()
            .map(|n| n.to_string())
            .collect();
        let cfg = Cfg::build(program.insts(), program.entry());
        table += &format!(
            "{:<9} {} {} {} {} {} | {} | {} | {} | {}\n",
            k.name,
            p.instructions,
            p.with_dest,
            p.single_consumer_redefining,
            p.single_consumer_other,
            p.sole_consumers,
            hist.join(" "),
            reused.join(" "),
            census(&classify(&cfg, program.insts())),
            census(&classify_with_loops(&cfg, program.insts())),
        );
    }
    assert!(
        table == GOLDEN_TABLE,
        "dataflow golden table changed; computed:\n{table}"
    );
}

/// Brute-force dynamic consumer counts: runs the functional machine and
/// replays the trace, recording the observed consumer count of every
/// value instance, grouped by its producing `(pc, slot)` site. Returns
/// the per-site counts and whether the trace ran to a halt (counts on
/// truncated traces are lower bounds — the tail values may still gain
/// consumers).
fn brute_force_counts(
    program: &Program,
    budget: u64,
) -> (HashMap<(usize, DefSlot), Vec<u32>>, bool) {
    let mut machine = Machine::new(program.clone());
    let (trace, stop) = machine.run_trace(budget).expect("lint-clean program runs");
    let mut producer_of: HashMap<regshare::isa::ArchReg, usize> = HashMap::new();
    let mut instances: Vec<((usize, DefSlot), u32)> = Vec::new();
    for r in &trace {
        for u in r.inst.uses() {
            if let Some(&id) = producer_of.get(&u) {
                instances[id].1 += 1;
            }
        }
        for (slot, d) in r.inst.defs() {
            producer_of.insert(d, instances.len());
            instances.push(((r.pc as usize, slot), 0));
        }
    }
    let mut by_site: HashMap<(usize, DefSlot), Vec<u32>> = HashMap::new();
    for (site, n) in instances {
        by_site.entry(site).or_default().push(n);
    }
    (by_site, stop == StopReason::Halted)
}

fn synthetic_config() -> impl Strategy<Value = SyntheticConfig> {
    (
        10usize..120,
        1u64..30,
        0.0f64..1.0,
        0.0f64..0.8,
        0.0f64..0.3,
        0.0f64..0.25,
        any::<u64>(),
    )
        .prop_map(
            |(body, iterations, bias, fp, mem, br, seed)| SyntheticConfig {
                body,
                iterations,
                single_use_bias: bias,
                fp_fraction: fp,
                mem_fraction: mem,
                branch_fraction: br,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn linter_accepts_every_synthetic_program(cfg in synthetic_config()) {
        let program = generate(cfg);
        let diags = lint_program(&program);
        prop_assert!(diags.is_empty(), "synthetic program flagged: {diags:?}");
    }

    #[test]
    fn oracle_holds_on_synthetic_programs(cfg in synthetic_config()) {
        let program = generate(cfg);
        let report = oracle_check(&program, 200_000).expect("synthetic executes");
        prop_assert!(report.violations.is_empty(), "{:?}", report.violations);
        prop_assert!(
            report.single_use_instances <= report.upper_bound_instances
        );
        if report.trace_complete {
            prop_assert!(
                report.lower_bound_instances <= report.single_use_instances
            );
        }
    }

    /// Both classifiers' per-site bounds must bracket every brute-force
    /// dynamic consumer count, and `classify` must report the loop-split
    /// bounds, with the refined classes folded into `Unknown`.
    #[test]
    fn static_bounds_bracket_brute_force_counts(cfg in synthetic_config()) {
        let program = generate(cfg);
        let cfa = Cfg::build(program.insts(), program.entry());
        let base = classify(&cfa, program.insts());
        let deep = classify_with_loops(&cfa, program.insts());
        let deep_of: HashMap<(usize, DefSlot), _> = deep
            .sites
            .iter()
            .map(|s| ((s.site.pc, s.site.slot), *s))
            .collect();
        let (observed, complete) = brute_force_counts(&program, 200_000);
        for s in &base.sites {
            let d = deep_of[&(s.site.pc, s.site.slot)];
            let folded = match d.class {
                SiteClass::AtMostOnce | SiteClass::NeverSingle => SiteClass::Unknown,
                class => class,
            };
            prop_assert!(
                (s.class, s.min_consumers, s.max_consumers)
                    == (folded, d.min_consumers, d.max_consumers),
                "pc {} {:?}: classify says {:?} [{}, {}], the loop split {:?} [{}, {}]",
                s.site.pc, s.site.slot,
                s.class, s.min_consumers, s.max_consumers,
                d.class, d.min_consumers, d.max_consumers,
            );
            let Some(counts) = observed.get(&(s.site.pc, s.site.slot)) else {
                continue;
            };
            for (site, label) in [(s, "base"), (&d, "loop-peeled")] {
                for &n in counts {
                    if site.max_consumers < MAX_SAT {
                        prop_assert!(
                            n <= site.max_consumers as u32,
                            "pc {} {:?}: observed {n} above {label} max {}",
                            s.site.pc, s.site.slot, site.max_consumers,
                        );
                    }
                    if complete {
                        prop_assert!(
                            n >= site.min_consumers as u32,
                            "pc {} {:?}: observed {n} below {label} min {}",
                            s.site.pc, s.site.slot, site.min_consumers,
                        );
                    }
                }
            }
        }
    }

    /// The loop-split proofs behind the two refined classes:
    /// `AtMostOnce` values may never gain a second consumer (holds even
    /// on truncated traces — it is an upper bound), and `NeverSingle`
    /// values are never consumed exactly once on complete traces.
    #[test]
    fn refined_classes_hold_dynamically(cfg in synthetic_config()) {
        let program = generate(cfg);
        let cfa = Cfg::build(program.insts(), program.entry());
        let deep = classify_with_loops(&cfa, program.insts());
        let (observed, complete) = brute_force_counts(&program, 200_000);
        for s in &deep.sites {
            let Some(counts) = observed.get(&(s.site.pc, s.site.slot)) else {
                continue;
            };
            match s.class {
                SiteClass::AtMostOnce => {
                    for &n in counts {
                        prop_assert!(
                            n <= 1,
                            "pc {} {:?}: AtMostOnce instance consumed {n} times",
                            s.site.pc, s.site.slot,
                        );
                    }
                }
                SiteClass::NeverSingle if complete => {
                    for &n in counts {
                        prop_assert!(
                            n != 1,
                            "pc {} {:?}: NeverSingle instance consumed exactly once",
                            s.site.pc, s.site.slot,
                        );
                    }
                }
                _ => {}
            }
        }
    }
}
