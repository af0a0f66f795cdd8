//! Wall-clock cost of simulating one Broadcast CONGEST round (companion
//! to table E5): Algorithm 1 versus the TDMA baseline on the same graph
//! and channel, bit-round by bit-round through the engine. Each arm runs
//! on its own named network seed so the two noise streams are independent.
//!
//! Besides the criterion timings, the bench prints one line per arm ×
//! graph and writes the machine-readable `BENCH_e5.json` metrics file (see
//! `beep_bench::perfjson`): `<arm>_<graph>_ns_per_round` (median wall
//! clock of one simulated round, network set-up included) and
//! `node_rounds_per_sec_<arm>_<graph>` (nodes × beep rounds of that round
//! per second), plus the `arms` count CI's perf bar asserts.

use beep_bench::perfjson::{median_nanos, write_bench_json};
use beep_congest::{Message, MessageWriter};
use beep_core::baseline::TdmaSimulator;
use beep_core::{BroadcastSimulator, SimulationParams};
use beep_net::{topology, BeepNetwork, Noise};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const B: usize = 16;

/// Distinct per-arm network seeds: the two simulators must NOT share a
/// noise stream, or their draws would be silently correlated and the
/// comparison would measure paired, not independent, executions. (If
/// paired-seed variance reduction is ever wanted, make it explicit by
/// setting these equal and saying so here.)
const ALGORITHM1_NET_SEED: u64 = 0xA1_5EED;
const TDMA_NET_SEED: u64 = 0x7D_5EED;

/// Timed rounds per arm for the metrics file.
const SAMPLES: usize = 15;

fn outgoing(n: usize) -> Vec<Option<Message>> {
    (0..n as u64)
        .map(|v| Some(MessageWriter::new().push_uint(v, B.min(63)).finish(B)))
        .collect()
}

/// Prints and records one arm's median round time and node-round rate.
fn record(metrics: &mut Vec<(String, f64)>, arm: &str, graph: &str, ns: f64, node_rounds: usize) {
    #[allow(clippy::cast_precision_loss)]
    let rate = node_rounds as f64 * 1e9 / ns;
    println!(
        "{arm} {graph}: {:.3} ms per simulated round, {rate:.3e} node-rounds/s",
        ns / 1e6
    );
    metrics.push((format!("{arm}_{graph}_ns_per_round"), ns));
    metrics.push((format!("node_rounds_per_sec_{arm}_{graph}"), rate));
}

fn bench_round_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_one_bc_round");
    group.sample_size(10);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut arms = 0;
    for (key, name, graph, eps) in [
        (
            "cycle32_noiseless",
            "cycle n=32 ε=0",
            topology::cycle(32).unwrap(),
            0.0,
        ),
        (
            "cycle32",
            "cycle n=32 ε=0.1",
            topology::cycle(32).unwrap(),
            0.1,
        ),
        (
            "gnp64",
            "gnp n=64 Δ≈8 ε=0.1",
            {
                let mut rng = StdRng::seed_from_u64(1);
                topology::gnp(64, 8.0 / 63.0, &mut rng).unwrap()
            },
            0.1,
        ),
    ] {
        let n = graph.node_count();
        let delta = graph.max_degree();
        let params = SimulationParams::calibrated(eps);
        let noise = if eps == 0.0 {
            Noise::Noiseless
        } else {
            // The fallible constructor keeps a bad table entry an error
            // message instead of a panic deep inside the engine.
            Noise::try_bernoulli(eps).expect("bench rates lie in the paper's (0, ½)")
        };
        let sim = BroadcastSimulator::new(params, B, delta).unwrap();
        let msgs = outgoing(n);
        group.bench_function(
            format!(
                "algorithm1 {name} ({} beep rounds)",
                sim.rounds_per_congest_round()
            ),
            |b| {
                let mut rng = StdRng::seed_from_u64(7);
                b.iter(|| {
                    let mut net = BeepNetwork::new(graph.clone(), noise, ALGORITHM1_NET_SEED);
                    black_box(sim.simulate_round(&mut net, &msgs, &mut rng).unwrap())
                });
            },
        );
        let mut rng = StdRng::seed_from_u64(7);
        let ns = median_nanos(SAMPLES, || {
            let mut net = BeepNetwork::new(graph.clone(), noise, ALGORITHM1_NET_SEED);
            black_box(sim.simulate_round(&mut net, &msgs, &mut rng).unwrap());
        });
        record(
            &mut metrics,
            "alg1",
            key,
            ns,
            n * sim.rounds_per_congest_round(),
        );
        let tdma = TdmaSimulator::new(&graph, B, eps);
        group.bench_function(
            format!(
                "tdma {name} ({} beep rounds)",
                tdma.rounds_per_congest_round()
            ),
            |b| {
                b.iter(|| {
                    let mut net = BeepNetwork::new(graph.clone(), noise, TDMA_NET_SEED);
                    black_box(tdma.simulate_round(&mut net, &msgs).unwrap())
                });
            },
        );
        let ns = median_nanos(SAMPLES, || {
            let mut net = BeepNetwork::new(graph.clone(), noise, TDMA_NET_SEED);
            black_box(tdma.simulate_round(&mut net, &msgs).unwrap());
        });
        record(
            &mut metrics,
            "tdma",
            key,
            ns,
            n * tdma.rounds_per_congest_round(),
        );
        arms += 2;
    }
    group.finish();
    // Both arms on every graph — the CI bar checks this count so a
    // silently-dropped arm or graph fails loudly.
    metrics.push(("arms".into(), f64::from(arms)));
    // The JSON file is CI's perf contract — a failed write must fail the
    // bench, or the perf bar would validate stale cached metrics.
    let path = write_bench_json("e5", &metrics)
        .expect("BENCH_e5.json must be written (CI's perf bar reads it)");
    println!("metrics written to {}", path.display());
}

criterion_group!(benches, bench_round_simulation);
criterion_main!(benches);
