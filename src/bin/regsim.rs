//! `regsim` — run one workload through the simulator from the command
//! line.
//!
//! ```text
//! regsim --kernel gmm --scheme proposed --regs 48 --scale 200000
//! regsim --kernel pchase --scheme both --regs 64 --verify
//! regsim --synthetic --bias 0.7 --seed 3 --scheme both
//! regsim --file program.s --verify
//! regsim --list
//! ```
//!
//! A reader that closes early (`regsim … | head`) ends the run quietly
//! with status 141, the status a shell reports for a writer killed by
//! `SIGPIPE`; any other failed write to stdout is an `error: …`.

use regshare::core::{BankConfig, Renamer};
use regshare::experiments::{check_stdout, die, flag_value};
use regshare::harness::{
    check_swept_rf, equal_count_config, kernel_by_name, renamer_for, swept_class, RenamerKind,
    Scheme,
};
use regshare::isa::RegClass;
use regshare::sim::{Pipeline, SimConfig};
use regshare::workloads::all_kernels;
use regshare::workloads::synthetic::{generate, SyntheticConfig};
use std::io::{self, Write};
use std::num::NonZeroU64;

struct Options {
    kernel: Option<String>,
    file: Option<String>,
    synthetic: bool,
    bias: f64,
    seed: u64,
    scheme: String,
    regs: usize,
    scale: u64,
    verify: bool,
    equal_count: bool,
    fault: Option<u64>,
    list: bool,
}

fn usage() -> ! {
    check_stdout(writeln!(
        io::stdout().lock(),
        "usage: regsim [--kernel NAME | --file PROG.s | --synthetic] [options]\n\
         \n\
         workload:\n\
           --kernel NAME      one of the {} built-in kernels (see --list)\n\
           --file PATH        assemble and run a textual .s program\n\
           --synthetic        generated workload (see --bias/--seed)\n\
           --bias F           synthetic single-use bias, 0..1 (default 0.5)\n\
           --seed N           synthetic RNG seed (default 1)\n\
         \n\
         simulation:\n\
           --scheme S         baseline | proposed | both (default both)\n\
           --regs N           swept register file size (default 64); proposed: {:?}\n\
           --scale N          committed-instruction budget (default 100000)\n\
           --equal-count      proposed scheme keeps the baseline's register count (no Table III row needed)\n\
           --verify           lockstep-check every commit against the functional machine\n\
           --fault ADDR       inject a one-shot page fault at this data address\n\
           --list             list the built-in kernels and exit",
        all_kernels().len(),
        BankConfig::PAPER_SIZES,
    ));
    std::process::exit(0);
}

fn parse() -> Options {
    let mut o = Options {
        kernel: None,
        file: None,
        synthetic: false,
        bias: 0.5,
        seed: 1,
        scheme: "both".into(),
        regs: 64,
        scale: 100_000,
        verify: false,
        equal_count: false,
        fault: None,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--kernel" => o.kernel = Some(flag_value(&mut args, "--kernel", "a name")),
            "--file" => o.file = Some(flag_value(&mut args, "--file", "a path")),
            "--synthetic" => o.synthetic = true,
            "--bias" => {
                o.bias = flag_value(&mut args, "--bias", "a number");
                // The generator's coin clamps silently; NaN fails the check.
                if !(0.0..=1.0).contains(&o.bias) {
                    die(&format!("--bias must be in [0, 1], got {}", o.bias));
                }
            }
            "--seed" => o.seed = flag_value(&mut args, "--seed", "a number"),
            "--scheme" => o.scheme = flag_value(&mut args, "--scheme", "a scheme"),
            "--regs" => o.regs = flag_value(&mut args, "--regs", "a number"),
            // Zero would mean no cap to `SimConfig::max_instructions`.
            "--scale" => {
                o.scale = flag_value::<NonZeroU64>(&mut args, "--scale", "a positive number").get()
            }
            "--verify" => o.verify = true,
            "--equal-count" => o.equal_count = true,
            "--fault" => {
                let v: String = flag_value(&mut args, "--fault", "an address");
                let parsed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    v.parse()
                };
                o.fault =
                    Some(parsed.unwrap_or_else(|_| die(&format!("bad --fault address: {v}"))));
            }
            "--list" => o.list = true,
            "--help" | "-h" => usage(),
            other => die(&format!("unknown flag {other} (try --help)")),
        }
    }
    o
}

fn build_renamer(o: &Options, scheme: Scheme, swept: RegClass) -> Box<dyn Renamer> {
    if scheme == Scheme::Proposed && o.equal_count {
        return RenamerKind::Reuse.build(equal_count_config(o.regs, swept));
    }
    renamer_for(scheme, o.regs, swept)
}

fn main() {
    let o = parse();
    let mut out = io::stdout().lock();
    if o.list {
        check_stdout(writeln!(out, "{:10}  suite", "kernel"));
        for k in all_kernels() {
            check_stdout(writeln!(out, "{:10}  {}", k.name, k.suite));
        }
        return;
    }

    let (program, swept, label) = if let Some(path) = &o.file {
        let source = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        let program =
            regshare::isa::parse_program(&source).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        (program, RegClass::Int, path.clone())
    } else if o.synthetic {
        let cfg = SyntheticConfig {
            single_use_bias: o.bias,
            seed: o.seed,
            iterations: (o.scale / 100).max(1),
            ..SyntheticConfig::default()
        };
        (
            generate(cfg),
            RegClass::Int,
            format!("synthetic(bias={}, seed={})", o.bias, o.seed),
        )
    } else {
        let name = o.kernel.clone().unwrap_or_else(|| usage());
        let kernel = kernel_by_name(&name).unwrap_or_else(|e| die(&e));
        (kernel.program(o.scale), swept_class(kernel.suite), name)
    };

    let mut config = SimConfig {
        max_instructions: o.scale,
        max_cycles: o.scale.saturating_mul(100).max(1_000_000),
        check_oracle: o.verify,
        ..SimConfig::default()
    };
    if let Some(addr) = o.fault {
        config.inject_page_faults.push(addr);
    }

    let schemes: Vec<Scheme> = match o.scheme.as_str() {
        "baseline" => vec![Scheme::Baseline],
        "proposed" => vec![Scheme::Proposed],
        "both" => vec![Scheme::Baseline, Scheme::Proposed],
        other => die(&format!("unknown scheme {other}")),
    };
    // --equal-count builds the proposed scheme at the baseline's register
    // count, which needs no Table III row.
    let table_iii = schemes.contains(&Scheme::Proposed) && !o.equal_count;
    check_swept_rf(o.regs, swept, table_iii)
        .unwrap_or_else(|e| die(&format!("--regs {} {e}", o.regs)));

    let mut ipcs = Vec::new();
    for scheme in schemes {
        let renamer = build_renamer(&o, scheme, swept);
        let mut sim = Pipeline::new(program.clone(), renamer, config.clone());
        match sim.run() {
            Ok(report) => {
                let (scheme, regs) = (scheme.label(), o.regs);
                check_stdout(writeln!(
                    out,
                    "=== {label} / {scheme} / {regs} regs ===\n{report}\n"
                ));
                ipcs.push(report.ipc());
            }
            Err(e) => {
                eprintln!("simulation failed ({}): {e}", scheme.label());
                std::process::exit(1);
            }
        }
    }
    if ipcs.len() == 2 && ipcs[0] > 0.0 {
        let speedup = ipcs[1] / ipcs[0];
        check_stdout(writeln!(out, "speedup (proposed / baseline): {speedup:.4}"));
    }
}
