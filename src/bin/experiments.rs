//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release --bin experiments -- all
//! cargo run --release --bin experiments -- fig10 fig11 --scale 200000
//! ```
//!
//! Each experiment prints its table and writes machine-readable rows to
//! `results/<exp>.json`. The experiments themselves live in
//! `regshare::experiments` (one module per subcommand); this binary only
//! parses flags and dispatches through the registry. A reader that
//! closes early ends the run quietly with status 141.

use regshare::experiments::{die, flag_value, registry, Args};
use regshare::harness::kernel_by_name;
use regshare::outln;
use std::num::NonZeroU64;

// Count heap traffic so `experiments profile` can report allocations
// per simulated kilocycle. Two relaxed atomic adds per allocation —
// noise next to the allocation itself, and the steady-state hot loop
// does not allocate at all.
#[global_allocator]
static ALLOC: regshare::CountingAlloc = regshare::CountingAlloc::new();

/// The two-speed registry `all --sample` runs: everything that scales to
/// 10⁹ instructions. Plain `all`, the detailed-mode evaluation, leaves
/// it out.
const SAMPLED: [&str; 2] = ["sample", "shape"];

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            // Zero would mean no instructions to the experiments but no
            // cap to `SimConfig::max_instructions`; neither is a run.
            "--scale" => {
                args.scale = flag_value::<NonZeroU64>(&mut it, "--scale", "a positive number").get()
            }
            "--out" => args.out_dir = flag_value(&mut it, "--out", "a directory"),
            "--campaigns" => args.campaigns = flag_value(&mut it, "--campaigns", "a number"),
            "--seed" => args.seed = flag_value(&mut it, "--seed", "a number"),
            "--kernels" => {
                let list: String = flag_value(&mut it, "--kernels", "a list");
                let kernels = list.split(',').map(|name| {
                    kernel_by_name(name).unwrap_or_else(|e| die(&format!("--kernels: {e}")))
                });
                args.kernels = Some(kernels.collect());
            }
            "--sample" => args.sample = true,
            "--workers" => args.workers = Some(flag_value(&mut it, "--workers", "a number")),
            "--period" => args.period = Some(flag_value(&mut it, "--period", "a number")),
            "--warmup" => args.warmup = Some(flag_value(&mut it, "--warmup", "a number")),
            "--measure" => args.measure = Some(flag_value(&mut it, "--measure", "a number")),
            "--port" => args.port = flag_value(&mut it, "--port", "a port number"),
            "--data-dir" => args.data_dir = flag_value(&mut it, "--data-dir", "a directory"),
            "--help" | "-h" => help(),
            other => args.exps.push(other.to_string()),
        }
    }
    if let Err(e) = args.sample_plan(args.scale) {
        die(&e);
    }
    if args.exps.is_empty() {
        args.exps.push("all".into());
    }
    args
}

fn help() -> ! {
    let names: Vec<&str> = registry().iter().map(|(n, _)| *n).collect();
    outln!(
        "usage: experiments [EXPERIMENT..] [--scale N] [--out DIR]\n\
         \x20                 [--campaigns N] [--seed N] [--kernels a,b,c]\n\
         \x20                 [--sample] [--workers N] [--period N] [--warmup N] [--measure N]\n\
         \x20                 [--port N] [--data-dir DIR]\n\
         experiments: {} all\n\
         --campaigns/--seed apply to the `inject` fault-injection sweep only; --kernels \
         picks the kernels of `inject` and `submit`\n\
         --sample makes `all` run the two-speed sampled registry ({}), the mode that \
         scales to --scale 1000000000\n\
         --workers/--period/--warmup/--measure tune sampled runs\n\
         `serve` runs the job service (--port to pin the bind port, --data-dir for \
         journal+cache, --workers for pool size); `submit` batches a sweep to a running \
         service at --port and verifies the results against in-process runs",
        names.join(" "),
        SAMPLED.join(", "),
    );
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    let known = registry();
    // The job service pair blocks on (or requires) a live listener, so
    // `all` never includes it.
    let service = ["serve", "submit"];
    // Host-time attribution: a wall-clock payload, so it is run only
    // when named.
    let wallclock = ["profile"];
    let selected: Vec<&str> = if args.exps.iter().any(|e| e == "all") {
        if args.sample {
            SAMPLED.to_vec()
        } else {
            known
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| !SAMPLED.contains(n) && !service.contains(n) && !wallclock.contains(n))
                .collect()
        }
    } else {
        args.exps.iter().map(String::as_str).collect()
    };
    for name in selected {
        match known.iter().find(|(n, _)| *n == name) {
            Some((_, f)) => {
                if let Err(e) = f(&args) {
                    die(&format!("{name}: {e}"));
                }
            }
            None => die(&format!("unknown experiment: {name} (try --help)")),
        }
    }
}
