//! The `engine_scale` workload: one `run_frames_batched_into` call over a
//! 2^18-node preferential-attachment graph (scale-free; its 19 MB CSR is
//! about ten times a 2 MiB L2) at `nproc` threads, ε = 0.05.
//!
//! One node in eight transmits a 128-round frame whose 32-round blocks
//! alternate ~5 % and ~90 % beep density, so both the scatter and the
//! gather kernels run. Every timed call starts from a fresh network with
//! the same seed, so every call must hear exactly the same bits.

use crate::common::{
    end_to_end, median, mix, ms, nproc, timed_loop, Args, Fnv, Probe, Report, Setup, Tracer,
};
use beep_bits::BitVec;
use beep_net::{topology, BeepNetwork, Graph, Noise};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const N: usize = 1 << 18;
const ATTACH: usize = 4;
const ROUNDS: usize = 128;
/// Beep-density blocks of the frames; also the engine's frame block size.
const BLOCK: usize = 32;
const EPSILON: f64 = 0.05;
/// Share of a run spent repeating the set-up (see `Setup`): a set-up takes
/// most of a call here, so a larger share than elsewhere buys enough of them.
const SETUP_SHARE: f64 = 0.25;
const MIN_CALLS: usize = 3;
/// Nodes whose noiseless heard strings are checked against an OR over
/// `Graph::neighbors`.
const SAMPLE_NODES: usize = 4096;
/// The traced run's torus has `N` nodes.
const TORUS_SIDE: usize = 512;

const TAG_GRAPH: u64 = 0xE6;
const TAG_FRAMES: u64 = 0xF4;
const TAG_NET: u64 = 0x4E;
const TAG_SAMPLE: u64 = 0x5A;

fn noisy() -> Noise {
    Noise::try_bernoulli(EPSILON).expect("ε = 0.05 is a valid rate")
}

fn build_frames(n: usize, seed: u64) -> Vec<Option<BitVec>> {
    let mut rng = StdRng::seed_from_u64(mix(seed, TAG_FRAMES));
    (0..n)
        .map(|_| {
            rng.random_bool(1.0 / 8.0).then(|| {
                BitVec::from_fn(ROUNDS, |t| {
                    rng.random_bool(if (t / BLOCK).is_multiple_of(2) {
                        0.05
                    } else {
                        0.9
                    })
                })
            })
        })
        .collect()
}

fn network(graph: &Graph, noise: Noise, seed: u64, threads: usize) -> BeepNetwork {
    let mut net = BeepNetwork::new(graph.clone(), noise, mix(seed, TAG_NET));
    net.set_parallelism(threads);
    net
}

/// One timed frame call; returns its wall time in ms.
fn call(net: &mut BeepNetwork, frames: &[Option<BitVec>], heard: &mut Vec<BitVec>) -> f64 {
    let t = Instant::now();
    net.run_frames_batched_into(frames, ROUNDS, heard)
        .expect("frames have the call's length");
    ms(t.elapsed())
}

fn fingerprint(heard: &[BitVec]) -> u64 {
    let mut fnv = Fnv::new();
    for h in heard {
        fnv.words(h.as_words());
    }
    fnv.finish()
}

/// Checks the noiseless heard strings of a seeded node sample against the
/// OR of the node's own frame and its neighbours' frames, and the noisy
/// run's flip share against ε.
fn check_reference(
    graph: &Graph,
    frames: &[Option<BitVec>],
    heard: &[BitVec],
    reference: &[BitVec],
    seed: u64,
    r: &mut Report,
) {
    let mut rng = StdRng::seed_from_u64(mix(seed, TAG_SAMPLE));
    let mut bad = 0;
    for _ in 0..SAMPLE_NODES {
        let v = rng.random_range(0..graph.node_count());
        let mut expect = BitVec::zeros(ROUNDS);
        for u in std::iter::once(v).chain(graph.neighbors(v).iter().copied()) {
            if let Some(f) = &frames[u] {
                expect.or_assign(f);
            }
        }
        bad += usize::from(reference[v] != expect);
    }
    r.check(bad == 0, || {
        format!(
            "{bad} of {SAMPLE_NODES} sampled nodes heard other than the OR of their neighbourhood"
        )
    });
    let flips: usize = heard
        .iter()
        .zip(reference)
        .map(|(h, g)| h.hamming_distance(g))
        .sum();
    let share = flips as f64 / (heard.len() * ROUNDS) as f64;
    r.check((share - EPSILON).abs() < 0.005, || {
        format!("noisy run flipped {share:.5} of heard bits, expected about {EPSILON}")
    });
}

pub fn run(args: &Args, r: &mut Report) {
    let threads = nproc();
    let seed = args.seed;
    let share = if args.trace { 0.0 } else { SETUP_SHARE };
    let (mut setup, (graph, frames, first_net)) = Setup::first(share, move || {
        let mut rng = StdRng::seed_from_u64(mix(seed, TAG_GRAPH));
        let graph = topology::preferential_attachment(N, ATTACH, &mut rng)
            .expect("preferential attachment parameters are valid");
        let frames = build_frames(N, seed);
        let net = network(&graph, noisy(), seed, threads);
        (graph, frames, net)
    });
    r.kernels
        .push(("pa".into(), first_net.kernel_label().into()));
    let mut heard = Vec::new();
    let mut next = Some(first_net);
    let mut stats = None;
    let mut first_fp = None;
    let mut mismatches = 0;
    let mut tr = Tracer::new();
    let probe = Probe::new(threads);
    let timing = timed_loop(
        if args.trace { 0.0 } else { args.seconds },
        MIN_CALLS,
        &probe,
        &mut setup,
        |op| {
            let root = tr.begin("net.op", None, op as u64);
            let mut net = match next.take() {
                Some(net) => net,
                None => tr.span("net.network_new", Some(root), op as u64, || {
                    network(&graph, noisy(), seed, threads)
                }),
            };
            let id = tr.begin("net.frames_batched", Some(root), op as u64);
            let t = call(&mut net, &frames, &mut heard);
            tr.end(id);
            let fp = tr.span("bits.fingerprint", Some(root), op as u64, || {
                fingerprint(&heard)
            });
            tr.end(root);
            stats.get_or_insert(net.stats());
            mismatches += usize::from(*first_fp.get_or_insert(fp) != fp);
            t
        },
    );
    let fp = first_fp.expect("at least one call");
    let stats = stats.expect("at least one call");
    r.check(mismatches == 0, || {
        format!("{mismatches} calls heard other bits than the first call")
    });

    // The 1-thread run must hear what the nproc-thread run heard.
    let mut single = Vec::new();
    let t1 = call(&mut network(&graph, noisy(), seed, 1), &frames, &mut single);
    let single_fp = fingerprint(&single);
    drop(single);
    r.check(single_fp == fp, || {
        "1-thread run differs from the nproc-thread run".into()
    });

    // Noiseless reference on the same frames.
    let mut reference = Vec::new();
    call(
        &mut network(&graph, Noise::Noiseless, seed, threads),
        &frames,
        &mut reference,
    );
    check_reference(&graph, &frames, &heard, &reference, seed, r);
    drop(reference);

    r.attempted = timing.op_ms.len() as u64 + 2;
    r.failed = mismatches as u64 + u64::from(single_fp != fp);
    r.count("engine.rounds", stats.rounds as u64);
    r.count("engine.beeps", stats.beeps);
    r.count("engine.heard_fnv", fp);

    if args.trace {
        tr.write(args);
        traced(
            &graph,
            &frames,
            &timing.op_ms,
            t1,
            stats.rounds,
            stats.beeps,
            &tr,
            r,
        );
        return;
    }
    end_to_end(r, &setup, "calls", &timing);
    eprintln!("1-thread call {t1:.1} ms");
}

#[allow(clippy::too_many_arguments)]
fn traced(
    graph: &Graph,
    frames: &[Option<BitVec>],
    times: &[f64],
    t1: f64,
    rounds: usize,
    beeps: u64,
    tr: &Tracer,
    r: &mut Report,
) {
    let threads = nproc();
    let t2 = median(times);
    let adjacency = graph.adjacency_bytes();
    let node_rounds_per_s = (N * ROUNDS) as f64 / (t2 / 1e3);

    // Per-round driver over one block against the batched driver.
    let mut net = network(graph, noisy(), 0, threads);
    let mut round_us = Vec::with_capacity(BLOCK);
    for t in 0..BLOCK {
        let beepers = BitVec::from_fn(N, |v| frames[v].as_ref().is_some_and(|f| f.get(t)));
        let start = Instant::now();
        let heard = net.run_round_bitset(&beepers).expect("one bit per node");
        round_us.push(start.elapsed().as_secs_f64() * 1e6);
        drop(heard);
    }
    drop(net);
    let round_bitset_us = median(&round_us);

    // The same frames on a 1024² torus, as CSR and as the implicit shape.
    let mut torus_ms = Vec::new();
    let mut torus_fp = Vec::new();
    for g in [
        topology::torus(TORUS_SIDE, TORUS_SIDE).expect("valid torus"),
        Graph::implicit_torus(TORUS_SIDE, TORUS_SIDE).expect("valid torus"),
    ] {
        let mut net = network(&g, noisy(), 0, threads);
        r.kernels
            .push((g.repr().name().into(), net.kernel_label().into()));
        let mut heard = Vec::new();
        torus_ms.push(call(&mut net, frames, &mut heard));
        torus_fp.push(fingerprint(&heard));
    }
    r.check(torus_fp[0] == torus_fp[1], || {
        "CSR and implicit torus heard different bits".into()
    });

    let frame_bytes: usize = frames
        .iter()
        .flatten()
        .map(|f| f.as_words().len() * 8)
        .sum();
    r.metric("net.phase_ms", t2, "ms");
    r.metric(
        "net.phase_node_rounds_per_s",
        node_rounds_per_s,
        "node-rounds/s",
    );
    r.metric("net.rounds", rounds as f64, "count");
    r.metric("net.beeps", beeps as f64, "count");
    r.metric("net.frames_ms_t1", t1, "ms");
    r.metric("net.frames_ms_t2", t2, "ms");
    r.metric("net.thread_speedup", t1 / t2, "ratio");
    r.metric("net.csr_torus_ms", torus_ms[0], "ms");
    r.metric("net.implicit_torus_ms", torus_ms[1], "ms");
    r.metric("net.adjacency_bytes", adjacency as f64, "bytes");
    r.metric(
        "net.bytes_computed",
        (adjacency * ROUNDS.div_ceil(BLOCK) + frame_bytes + N * ROUNDS / 8) as f64,
        "bytes",
    );
    r.metric("net.round_bitset_us", round_bitset_us, "us");
    r.metric(
        "net.batch_speedup",
        round_bitset_us / (t2 * 1e3 / ROUNDS as f64),
        "ratio",
    );
    r.metric("trace.coverage", tr.coverage("net.op"), "ratio");
    r.metric(
        "trace.overhead_ratio",
        (tr.total_ms("net.frames_batched") / times.len() as f64)
            / (times.iter().sum::<f64>() / times.len() as f64),
        "ratio",
    );
    r.metric(
        "trace.replay_match",
        f64::from(u8::from(r.problems.is_empty())),
        "ratio",
    );
}
