//! The command-line front ends reject bad input with `error: …` and
//! exit status 2 before simulating anything, and still run valid input.

use regshare::core::BankConfig;
use regshare::experiments::registry;
use regshare::workloads::all_kernels;
use std::process::{Command, Output};

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");
const REGSIM: &str = env!("CARGO_BIN_EXE_regsim");

/// Runs `bin` with `fixed` and then the space-separated words of `flags`.
fn run(bin: &str, fixed: &[&str], flags: &str) -> Output {
    Command::new(bin)
        .args(fixed)
        .args(flags.split_whitespace())
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

/// Asserts exit status 2 and an `error:` on stderr that names `needle`.
fn assert_rejected(out: Output, flags: &str, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.code() == Some(2) && stderr.starts_with("error: ") && stderr.contains(needle),
        "{flags}: expected exit 2 and an error naming {needle:?}, got {:?}: {stderr}",
        out.status.code()
    );
}

#[test]
fn experiments_rejects_sample_plans_it_cannot_build() {
    let out_dir = std::env::temp_dir().join(format!("regshare-cli-test-{}", std::process::id()));
    let fixed = [
        "sample",
        "--scale",
        "1000",
        "--out",
        out_dir.to_str().unwrap(),
    ];
    for (flags, needle) in [
        ("--period 100 --warmup 200", "--period 100"),
        ("--measure 0", "--measure"),
        ("--period 0", "--period 0"),
        ("--warmup 18446744073709551615 --measure 1", "overflows"),
    ] {
        assert_rejected(run(EXPERIMENTS, &fixed, flags), flags, needle);
    }
    assert!(!out_dir.exists(), "a rejected run wrote results");
}

#[test]
fn experiments_rejects_a_zero_scale() {
    // Zero instructions would "succeed" with a table of zeros.
    let out_dir = std::env::temp_dir().join(format!("regshare-cli-scale-{}", std::process::id()));
    let fixed = ["fig1", "--out", out_dir.to_str().unwrap()];
    assert_rejected(
        run(EXPERIMENTS, &fixed, "--scale 0"),
        "--scale 0",
        "--scale",
    );
    assert!(!out_dir.exists(), "a rejected run wrote results");
}

#[test]
fn experiments_help_lists_every_registered_experiment() {
    let out = run(EXPERIMENTS, &["--help"], "");
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = help
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .expect("an `experiments:` line")
        .split_whitespace()
        .collect();
    for (name, _) in registry() {
        assert!(listed.contains(&name), "--help omits {name}: {listed:?}");
    }
    assert!(listed.contains(&"all") && !listed.contains(&"bench"));
}

#[test]
fn experiments_bench_is_an_unknown_experiment() {
    let out = run(EXPERIMENTS, &["bench", "--scale", "1000"], "");
    assert_rejected(out, "bench", "unknown experiment: bench");
}

#[test]
fn experiments_rejects_unknown_kernels_before_connecting() {
    // Nothing listens on port 9: a submit that got as far as connecting
    // would report the service unreachable instead.
    let out = run(
        EXPERIMENTS,
        &["submit", "--port", "9"],
        "--kernels saxpy,nope",
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_rejected(out, "--kernels saxpy,nope", "unknown kernel \"nope\"");
    for kernel in all_kernels() {
        assert!(stderr.contains(kernel.name), "{stderr}");
    }
}

#[test]
fn regsim_rejects_numbers_it_cannot_parse() {
    let fixed = ["--scheme", "baseline", "--scale", "2000"];
    for (flags, needle) in [
        ("--kernel saxpy --regs 6x4", "--regs"),
        ("--kernel saxpy --scale 1e6", "--scale"),
        ("--synthetic --bias half", "--bias"),
        ("--synthetic --seed -1", "--seed"),
    ] {
        assert_rejected(run(REGSIM, &fixed, flags), flags, needle);
    }
}

#[test]
fn regsim_rejects_a_zero_scale() {
    // As an instruction cap, zero would mean "run to halt".
    let fixed = ["--kernel", "saxpy", "--scheme", "baseline"];
    assert_rejected(run(REGSIM, &fixed, "--scale 0"), "--scale 0", "--scale");
}

#[test]
fn regsim_rejects_a_bias_outside_the_unit_interval() {
    let fixed = ["--synthetic", "--scheme", "baseline", "--scale", "2000"];
    for bias in ["1.5", "-0.1", "nan"] {
        let flags = format!("--bias {bias}");
        assert_rejected(run(REGSIM, &fixed, &flags), &flags, "--bias");
    }
    let out = run(REGSIM, &fixed, "--bias 0.7");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "--bias 0.7: {stderr}");
}

#[test]
fn regsim_rejects_register_files_it_cannot_build() {
    let sizes = format!("{:?}", BankConfig::PAPER_SIZES);
    for (flags, needle) in [
        ("--scheme proposed --regs 50", sizes.as_str()),
        ("--scheme both --regs 50", &sizes),
        ("--scheme baseline --regs 32", "logical registers"),
        (
            "--scheme proposed --equal-count --regs 8",
            "logical registers",
        ),
    ] {
        assert_rejected(run(REGSIM, &["--kernel", "saxpy"], flags), flags, needle);
    }
}

#[test]
fn regsim_still_runs_valid_sizes() {
    for flags in [
        "--scheme both --regs 64",
        "--scheme proposed --equal-count --regs 50",
        "--scheme baseline --regs 50",
    ] {
        let out = run(REGSIM, &["--kernel", "saxpy", "--scale", "2000"], flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{flags}: {stderr}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("host: wall="));
    }
}
