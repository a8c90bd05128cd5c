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
//! parses flags and dispatches through the registry.

use regshare::experiments::{die, registry, Args};

// Count heap traffic so `experiments profile` can report allocations
// per simulated kilocycle. Two relaxed atomic adds per allocation —
// noise next to the allocation itself, and the steady-state hot loop
// does not allocate at all.
#[global_allocator]
static ALLOC: regshare::CountingAlloc = regshare::CountingAlloc::new();

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--out" => {
                args.out_dir = it.next().unwrap_or_else(|| die("--out needs a directory"));
            }
            "--campaigns" => {
                args.campaigns = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--campaigns needs a number"));
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--kernels" => {
                let list = it.next().unwrap_or_else(|| die("--kernels needs a list"));
                args.kernels = Some(list.split(',').map(str::to_string).collect());
            }
            "--sample" => args.sample = true,
            "--workers" => {
                args.workers = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--workers needs a number")),
                );
            }
            "--period" => {
                args.period = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--period needs a number")),
                );
            }
            "--warmup" => {
                args.warmup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--warmup needs a number")),
                );
            }
            "--measure" => {
                args.measure = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--measure needs a number")),
                );
            }
            "--port" => {
                args.port = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--port needs a port number"));
            }
            "--data-dir" => {
                args.data_dir = it
                    .next()
                    .unwrap_or_else(|| die("--data-dir needs a directory"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [EXPERIMENT..] [--scale N] [--out DIR]\n\
                     \x20                 [--campaigns N] [--seed N] [--kernels a,b,c]\n\
                     \x20                 [--sample] [--workers N] [--period N] \
                     [--warmup N] [--measure N]\n\
                     \x20                 [--port N] [--data-dir DIR]\n\
                     experiments: fig1 fig2 fig3 table1 table2 table3 fig9 fig10 fig10ec \
                     fig11 fig12 analyze hints ablate-counter ablate-predictor ablate-banks \
                     ablate-speculation inject smt profile sample shape bench serve submit all\n\
                     --campaigns/--seed/--kernels apply to the `inject` fault-injection \
                     sweep only\n\
                     --sample makes `all` run the two-speed sampled registry (sample, \
                     shape, bench), the mode that scales to --scale 1000000000\n\
                     --workers/--period/--warmup/--measure tune sampled runs\n\
                     `serve` runs the job service (--port to pin the bind port, \
                     --data-dir for journal+cache, --workers for pool size); `submit` \
                     batches a sweep to a running service at --port and verifies the \
                     results against in-process runs"
                );
                std::process::exit(0);
            }
            other => args.exps.push(other.to_string()),
        }
    }
    if args.exps.is_empty() {
        args.exps.push("all".into());
    }
    args
}

fn main() {
    let args = parse_args();
    let known = registry();
    // The two-speed registry: everything that scales to 10⁹. Kept out of
    // plain `all`, which promises bit-identical output across runs — the
    // `bench` report's payload is wall-clock throughput.
    let sampled = ["sample", "shape", "bench"];
    // The job service pair blocks on (or requires) a live listener, so
    // `all` never includes it either.
    let service = ["serve", "submit"];
    // Host-time attribution: wall-clock payload like `bench`, but not
    // part of the sampled trio — run it explicitly.
    let wallclock = ["profile"];
    let selected: Vec<&str> = if args.exps.iter().any(|e| e == "all") {
        if args.sample {
            sampled.to_vec()
        } else {
            known
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| !sampled.contains(n) && !service.contains(n) && !wallclock.contains(n))
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
