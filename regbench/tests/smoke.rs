//! Smoke test: every workload for a single rep against the committed
//! goldens, and the traced probe at a tiny size. The benchmark is a Cargo
//! workspace of its own, so these run with
//! `cargo test --offline --manifest-path regbench/Cargo.toml`.

use regbench::probe::{pass, ProbeSpec};
use regbench::trace::Tracer;
use regbench::{per_layer_names, END_TO_END};
use regshare::workloads::all_kernels;
use serde::Value;
use std::path::Path;
use std::process::Command;

#[test]
fn every_workload_prints_every_metric_and_matches_its_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    for workload in ["detailed_suite", "paper_sweep", "sampled", "serve_sweep"] {
        let out = Command::new(env!("CARGO_BIN_EXE_regbench"))
            .current_dir(root)
            .args(["run", "--workload", workload, "--smoke"])
            .output()
            .expect("run regbench");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let last = stdout.lines().last().expect("a result line");
        let result = serde_json::from_str(last).expect("the last line is JSON");
        assert_eq!(
            result.get("correct").and_then(Value::as_bool),
            Some(true),
            "{workload}"
        );
        assert_eq!(
            result.get("failed").and_then(Value::as_u64),
            Some(0),
            "{workload}"
        );
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
        let metrics = result.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(unit),
                "{workload} {name}"
            );
            let v = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
    }
}

#[test]
fn the_traced_probe_measures_the_same_program() {
    let spec = ProbeSpec {
        kernels: all_kernels().into_iter().step_by(6).collect(),
        point_scale: 3_000,
        warm_scale: 6_000,
    };
    // `pass` fails if the wrapped or the profiled run's deterministic
    // report fields differ from the plain run's by a single byte.
    let metrics = pass(&spec, &mut Tracer::on(), 1).expect("traced runs reproduce the plain run");
    // The first three per-layer metrics are the client's, not the probe's.
    for name in per_layer_names().iter().skip(3) {
        assert!(metrics.contains_key(name), "probe does not report {name}");
    }
    assert_eq!(metrics.len(), per_layer_names().len() - 3);
    assert!(metrics["core.rename_calls"] > 0.0);
    assert!(metrics["sim.cycles"] > 0.0);
}
