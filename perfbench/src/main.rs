//! Repository benchmark for the noisy-beeps workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the crates' public entry points, checks every
//! output, and prints the host facts, the exact simulation counts and, as
//! the last stdout line, one JSON object with the metrics. `--trace 0`
//! prints the end-to-end metrics, `--trace 1` the per-layer ones. Workloads
//! and metrics are explained in `perfbench/RATIONALE.md`.

mod alg1;
mod campaign;
mod common;
mod engine;

use common::{Args, Report};

/// End-to-end metrics every untraced run prints (the `end_to_end` list of
/// BENCHMARK.json).
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_cost_x", "x")];

/// Per-layer metrics every traced run prints (the `per_layer` list of
/// BENCHMARK.json). A workload that does not exercise a layer reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("bits.and_not_count_ns", "ns"),
    ("bits.bytes_per_call", "bytes"),
    ("codes.encode_ms", "ms"),
    ("codes.encode_calls", "count"),
    ("codes.set_decode_ms", "ms"),
    ("codes.set_decode_calls", "count"),
    ("codes.set_accept_ratio", "ratio"),
    ("codes.msg_decode_ms", "ms"),
    ("codes.msg_decode_calls", "count"),
    ("net.phase_ms", "ms"),
    ("net.phase_node_rounds_per_s", "node-rounds/s"),
    ("net.rounds", "count"),
    ("net.beeps", "count"),
    ("net.frames_ms_t1", "ms"),
    ("net.frames_ms_t2", "ms"),
    ("net.thread_speedup", "ratio"),
    ("net.csr_torus_ms", "ms"),
    ("net.implicit_torus_ms", "ms"),
    ("net.adjacency_bytes", "bytes"),
    ("net.bytes_computed", "bytes"),
    ("net.round_bitset_us", "us"),
    ("net.batch_speedup", "ratio"),
    ("core.round_ms_p50", "ms"),
    ("core.round_ms_p90", "ms"),
    ("core.tdma_round_ms_p50", "ms"),
    ("core.tdma_round_ms_p90", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.candidates_scored", "count"),
    ("core.candidates_useful_ratio", "ratio"),
    ("core.false_negatives", "count"),
    ("core.false_positives", "count"),
    ("core.decoy_acceptances", "count"),
    ("core.message_errors", "count"),
    ("core.alg1_beep_rounds", "count"),
    ("core.tdma_beep_rounds", "count"),
    ("core.ns_per_beep_round", "ns"),
    ("congest.native_round_us", "us"),
    ("congest.sim_overhead_x", "ratio"),
    ("apps.matching.cell_ms_p50", "ms"),
    ("apps.mis.cell_ms_p50", "ms"),
    ("apps.coloring.cell_ms_p50", "ms"),
    ("apps.round_sim.cell_ms_p50", "ms"),
    ("apps.tdma.cell_ms_p50", "ms"),
    ("apps.beep_consensus.cell_ms_p50", "ms"),
    ("scenarios.parse_ms", "ms"),
    ("scenarios.expand_ms", "ms"),
    ("scenarios.instance_build_ms", "ms"),
    ("scenarios.parallel_efficiency", "ratio"),
    ("scenarios.executor_overhead_ms", "ms"),
    ("scenarios.cells_ok", "count"),
    ("scenarios.cells_failed", "count"),
    ("scenarios.cells_skipped", "count"),
    ("scenarios.cells_per_s", "cells/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.replay_match", "ratio"),
];

/// Puts the run's metrics in the declared order and units, filling the ones
/// this workload does not measure with 0. A metric missing from the list,
/// or reported with another unit, is a bug in the benchmark.
fn canonical(report: &mut Report, list: &[(&str, &'static str)]) {
    for (name, _, unit) in &report.metrics {
        assert!(
            list.contains(&(name.as_str(), unit)),
            "metric {name} [{unit}] is not declared"
        );
    }
    report.metrics = list
        .iter()
        .map(|&(name, unit)| {
            let value = report
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |(_, v, _)| *v);
            (name.to_string(), value, unit)
        })
        .collect();
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <alg1_dense|alg1_wide|tdma_dense|campaign_mix|engine_scale> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "alg1_dense" => alg1::run(alg1::Workload::Alg1Dense, &args, &mut report),
        "alg1_wide" => alg1::run(alg1::Workload::Alg1Wide, &args, &mut report),
        "tdma_dense" => alg1::run(alg1::Workload::TdmaDense, &args, &mut report),
        "campaign_mix" => campaign::run(&args, &mut report),
        "engine_scale" => engine::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    canonical(
        &mut report,
        if args.trace { PER_LAYER } else { &END_TO_END },
    );
    report.print(&args);
    if !report.correct() {
        std::process::exit(1);
    }
}
