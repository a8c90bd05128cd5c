//! The regshare benchmark's library: workloads, host measurement,
//! golden checks, the traced per-layer probe and the run comparison.
//! `src/main.rs` is the `regbench` command line over it.

pub mod compare;
pub mod golden;
pub mod host;
pub mod probe;
pub mod trace;
pub mod workloads;
pub mod yardstick;

/// End-to-end metrics, with their units, in output order. `slices`
/// counts yardstick slices (see [`yardstick`]).
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_norm", "slices"),
    ("cpu_norm", "slices"),
    ("cpu_util", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run that come before the stage
/// slots; the first three are the client's, the rest the probe's.
const PER_LAYER_HEAD: [&str; 29] = [
    "client.calls",
    "client.call_p50_ms",
    "client.call_p95_ms",
    "workloads.program_build_ms",
    "sim.pipeline_new_ms",
    "sim.ns_per_cycle",
    "sim.cycles",
    "sim.uops_per_s",
    "sim.ipc",
    "sim.checkpoint_ms",
    "sim.window_ms",
    "sim.warm_ns_per_inst",
    "isa.step_ns",
    "core.rename_ns",
    "core.commit_ns",
    "core.squash_ns",
    "core.rename_calls",
    "core.commit_calls",
    "core.squash_calls",
    "core.note_stall_calls",
    "core.rename_fail_ratio",
    "core.reuse_fraction",
    "mem.access_inst_ns",
    "mem.access_data_ns",
    "mem.warm_ns_per_inst",
    "mem.l1d_hit_ratio",
    "mem.l2_hit_ratio",
    "mem.tlb_hit_ratio",
    "bpred.predict_update_ns",
];

/// Per-layer metrics after the stage slots.
const PER_LAYER_TAIL: [&str; 2] = ["bpred.accuracy", "trace_overhead"];

/// Whether the simulator counts work in `StageProfile` slot `slot`: the
/// `observe` slot is timed but counts none, so its work would always
/// read 0.
pub(crate) fn counts_work(slot: &str) -> bool {
    slot != "observe"
}

/// Every per-layer metric name, in output order: the head, the time and
/// (where counted) the work of every `StageProfile` slot, the tail.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = PER_LAYER_HEAD.iter().map(|s| s.to_string()).collect();
    for slot in regshare::sim::STAGE_SLOT_NAMES {
        names.push(format!("sim.stage.{slot}.ns_per_cycle"));
        if counts_work(slot) {
            names.push(format!("sim.stage.{slot}.work"));
        }
    }
    names.extend(PER_LAYER_TAIL.iter().map(|s| s.to_string()));
    names
}

/// The unit of a per-layer metric, read off its name.
pub fn per_layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("ns_per_cycle") {
        "ns/cycle"
    } else if name.ends_with("ns_per_inst") {
        "ns/inst"
    } else if name.ends_with("_ns") {
        "ns"
    } else if name.ends_with("per_s") {
        "1/s"
    } else if name.ends_with("calls") || name.ends_with(".work") || name.ends_with(".cycles") {
        "count"
    } else {
        "ratio"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `BENCHMARK.json` must name exactly the metrics and units this
    /// crate prints, and exactly its workloads.
    #[test]
    fn benchmark_json_matches_the_crate() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let section = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .expect("section present")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|n| {
                let u = per_layer_unit(&n).to_string();
                (n, u)
            })
            .collect();
        assert_eq!(section("per_layer"), layers);
        let workloads: Vec<String> = section("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = workloads::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }
}
