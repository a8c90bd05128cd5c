//! Prints golden (kernel, scheme) -> (cycles, committed) tuples for the
//! determinism regression test. Dev tool; output is pasted into
//! `tests/determinism.rs` (default mode) or `WIDTH_GOLDEN` in
//! `tests/smt.rs` (`width` mode: the superscalar-width sweep goldens).

use regshare::harness::{run_kernel, RunSpec, Scheme};
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
