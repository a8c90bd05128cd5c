//! Prints golden (kernel, scheme) -> (cycles, committed) tuples for the
//! determinism regression test. Dev tool; output is pasted into
//! `tests/determinism.rs` (default mode), `WIDTH_GOLDEN` in
//! `tests/smt.rs` (`width` mode: the superscalar-width sweep goldens) or
//! `EARLY_GOLDEN` in `tests/early_release.rs` (`early` mode: kernel,
//! cycles, committed and registers released by the early-release
//! comparator at rf 48).

use regshare::harness::{run_kernel, RenamerKind, RunSpec, Scheme};
use regshare::workloads::all_kernels;

fn main() {
    let width_mode = std::env::args().any(|a| a == "width");
    let scale = 8_000;
    let rf = 64;
    if width_mode {
        // The width sweep pins rename-width scaling behavior: widths
        // 2/4/8 (`SimConfig::with_width`: issue_width = 2x) and all
        // other Table I parameters unchanged.
        for kernel in all_kernels() {
            if !["saxpy", "fft", "hashjoin", "dct", "matmul", "sort"].contains(&kernel.name) {
                continue;
            }
            for scheme in [Scheme::Baseline, Scheme::Proposed] {
                for width in [2usize, 4, 8] {
                    let mut spec = RunSpec::scheme(kernel, scheme, rf, scale);
                    spec.sim = spec.sim.with_width(width);
                    let r = spec.run().expect("width golden run");
                    println!(
                        "    (\"{}\", Scheme::{:?}, {}, {}, {}),",
                        kernel.name, scheme, width, r.cycles, r.committed_instructions
                    );
                }
            }
        }
        return;
    }
    if std::env::args().any(|a| a == "early") {
        // A starved swept file, where early release frees registers
        // well before commit.
        for kernel in all_kernels() {
            let mut spec = RunSpec::scheme(kernel, Scheme::Baseline, 48, scale);
            spec.renamer = RenamerKind::EarlyRelease;
            let r = spec.run().expect("early-release golden run");
            println!(
                "    (\"{}\", {}, {}, {}),",
                kernel.name, r.cycles, r.committed_instructions, r.rename.releases
            );
        }
        return;
    }
    for kernel in all_kernels() {
        for scheme in [Scheme::Baseline, Scheme::Proposed] {
            let r = run_kernel(&kernel, scheme, rf, scale);
            println!(
                "    (\"{}\", Scheme::{:?}, {}, {}),",
                kernel.name, scheme, r.cycles, r.committed_instructions
            );
        }
    }
}
