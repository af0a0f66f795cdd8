//! The Algorithm 1 and TDMA workloads: one simulated Broadcast CONGEST
//! round per operation, every node broadcasting its id.
//!
//! * `alg1_dense` / `tdma_dense`: G(64, 8/63) with Δ = 15, ε = 0.1, B = 16
//!   (the paper's headline configuration; long frames on a one-word
//!   network, so the `net` frame driver does most of the work).
//! * `alg1_wide`: random 4-regular graph on 512 nodes, ε = 0.1, B = 16
//!   (short frames, many transmitters: phase-1 decoding dominates).
//!
//! The traced run re-does each round with the public calls in Algorithm 1's
//! order (encode, two frame phases, set decoding, message decoding) so the
//! time of `simulate_round` can be split by layer.

use crate::common::{
    end_to_end, median, mix, ms, quantile, timed_loop, Args, Fnv, Probe, Report, Setup, Tracer,
};
use beep_bits::BitVec;
use beep_codes::{CombinedCode, MessageDecoder, SetDecoder};
use beep_congest::{Message, MessageWriter};
use beep_core::baseline::{distance2_coloring, TdmaSimulator};
use beep_core::{BroadcastSimulator, RoundOutcome, RoundStats, SimulationParams};
use beep_net::{topology, BeepNetwork, Graph, Noise};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

const B: usize = 16;
const EPSILON: f64 = 0.1;
/// Operations whose results feed the exact counts; every run makes at
/// least this many, so the counts repeat for one seed whatever the speed.
const COUNTED_OPS: usize = 16;
/// Share of a run spent repeating the set-up (see `Setup`).
const SETUP_SHARE: f64 = 0.05;

const TAG_GRAPH: u64 = 0x6752;
const TAG_ALG1_NET: u64 = 0xA15E;
const TAG_TDMA_NET: u64 = 0x7D5E;
const TAG_RV: u64 = 0x5256;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Alg1Dense,
    Alg1Wide,
    TdmaDense,
}

/// The graph generator seed for a workload seed.
///
/// The dense graph is G(64, 8/63) conditioned on Δ = 15, a 26-colour
/// distance-2 colouring and 250–262 edges, so that the phase length,
/// the TDMA slot count and the decoding work are the same on every seed
/// (they set the cost of a round; the edges themselves vary with the
/// seed). The search is input generation and is not part of `setup_s`.
fn graph_seed(workload: Workload, seed: u64) -> u64 {
    if workload == Workload::Alg1Wide {
        return mix(seed, TAG_GRAPH);
    }
    for k in 0..100_000u64 {
        let s = mix(mix(seed, TAG_GRAPH), k);
        let g = build_graph(workload, s);
        let m = g.edge_count();
        if g.max_degree() == 15
            && (250..=262).contains(&m)
            && TdmaSimulator::new(&g, B, EPSILON).colors() == 26
        {
            return s;
        }
    }
    panic!("no conditioned G(64, 8/63) instance in 100000 draws");
}

fn build_graph(workload: Workload, graph_seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    match workload {
        Workload::Alg1Wide => topology::random_regular(512, 4, &mut rng),
        Workload::Alg1Dense | Workload::TdmaDense => topology::gnp(64, 8.0 / 63.0, &mut rng),
    }
    .expect("workload graph parameters are valid")
}

fn messages(n: usize) -> Vec<Option<Message>> {
    (0..n as u64)
        .map(|v| Some(MessageWriter::new().push_uint(v, B).finish(B)))
        .collect()
}

/// What an ideal Broadcast CONGEST round delivers: each node's sorted
/// neighbour messages, computed from `Graph::neighbors`.
fn expected_delivery(graph: &Graph, msgs: &[Option<Message>]) -> Vec<Vec<Message>> {
    (0..graph.node_count())
        .map(|v| {
            let mut inbox: Vec<Message> = graph
                .neighbors(v)
                .iter()
                .filter_map(|&u| msgs[u].clone())
                .collect();
            inbox.sort_unstable();
            inbox
        })
        .collect()
}

fn noise() -> Noise {
    Noise::try_bernoulli(EPSILON).expect("ε = 0.1 is a valid rate")
}

struct Instance {
    graph: Graph,
    msgs: Vec<Option<Message>>,
    expected: Vec<Vec<Message>>,
}

fn instance(workload: Workload, gseed: u64) -> Instance {
    let graph = build_graph(workload, gseed);
    let msgs = messages(graph.node_count());
    let expected = expected_delivery(&graph, &msgs);
    Instance {
        graph,
        msgs,
        expected,
    }
}

fn alg1_sim(graph: &Graph) -> BroadcastSimulator {
    BroadcastSimulator::new(SimulationParams::calibrated(EPSILON), B, graph.max_degree())
        .expect("code parameters are valid")
}

/// Folds one round's delivery and counters into the exact-count state.
#[derive(Default)]
struct Counted {
    delivered: Option<Fnv>,
    stats: RoundStats,
    beeps: u64,
    rounds: u64,
}

impl Counted {
    fn add(&mut self, out: &RoundOutcome, net: &BeepNetwork) {
        let fnv = self.delivered.get_or_insert_with(Fnv::new);
        for inbox in &out.delivered {
            fnv.word(inbox.len() as u64);
            for m in inbox {
                fnv.words(m.to_bitvec().as_words());
            }
        }
        self.stats.merge(&out.stats);
        self.beeps += net.stats().beeps;
        self.rounds += net.stats().rounds as u64;
    }

    fn report(&self, prefix: &str, r: &mut Report) {
        let s = &self.stats;
        r.count(&format!("{prefix}.beep_rounds"), self.rounds);
        r.count(&format!("{prefix}.beeps"), self.beeps);
        r.count(&format!("{prefix}.transmitters"), s.transmitters as u64);
        r.count(
            &format!("{prefix}.false_negatives"),
            s.false_negatives as u64,
        );
        r.count(
            &format!("{prefix}.false_positives"),
            s.false_positives as u64,
        );
        r.count(&format!("{prefix}.decoys_scored"), s.decoys_scored as u64);
        r.count(
            &format!("{prefix}.decoy_acceptances"),
            s.decoy_acceptances as u64,
        );
        r.count(&format!("{prefix}.message_errors"), s.message_errors as u64);
        r.count(
            &format!("{prefix}.imperfect_rounds"),
            s.imperfect_rounds as u64,
        );
        r.count(
            &format!("{prefix}.delivered_fnv"),
            self.delivered.map_or(0, Fnv::finish),
        );
    }
}

/// One Algorithm 1 round on a fresh network: every operation starts from
/// the same network state and draws its `r_v` from its own stream.
fn alg1_round(
    sim: &BroadcastSimulator,
    inst: &Instance,
    seed: u64,
    op: usize,
) -> (f64, RoundOutcome, BeepNetwork) {
    let mut net = BeepNetwork::new(
        inst.graph.clone(),
        noise(),
        mix(mix(seed, TAG_ALG1_NET), op as u64),
    );
    let mut rng = StdRng::seed_from_u64(mix(mix(seed, TAG_RV), op as u64));
    let t = Instant::now();
    let out = sim
        .simulate_round(&mut net, &inst.msgs, &mut rng)
        .expect("inputs match the simulator");
    (ms(t.elapsed()), black_box(out), net)
}

fn tdma_round(
    tdma: &TdmaSimulator,
    inst: &Instance,
    seed: u64,
    op: usize,
) -> (f64, RoundOutcome, BeepNetwork) {
    let mut net = BeepNetwork::new(
        inst.graph.clone(),
        noise(),
        mix(mix(seed, TAG_TDMA_NET), op as u64),
    );
    let t = Instant::now();
    let out = tdma
        .simulate_round(&mut net, &inst.msgs)
        .expect("inputs match the simulator");
    (ms(t.elapsed()), black_box(out), net)
}

pub fn run(workload: Workload, args: &Args, r: &mut Report) {
    let gseed = graph_seed(workload, args.seed);
    let is_tdma = workload == Workload::TdmaDense;
    // Set-up: graph, messages and the simulator the timed operation uses.
    let share = if args.trace { 0.0 } else { SETUP_SHARE };
    let (mut setup, (inst, sim, tdma)) = Setup::first(share, move || {
        let inst = instance(workload, gseed);
        if is_tdma {
            let tdma = TdmaSimulator::new(&inst.graph, B, EPSILON);
            (inst, None, Some(tdma))
        } else {
            let sim = alg1_sim(&inst.graph);
            (inst, Some(sim), None)
        }
    });
    let label = BeepNetwork::new(inst.graph.clone(), noise(), 0).kernel_label();
    r.kernels.push(("round".into(), label.into()));

    if args.trace {
        let sim = sim.unwrap_or_else(|| alg1_sim(&inst.graph));
        let tdma = tdma.unwrap_or_else(|| TdmaSimulator::new(&inst.graph, B, EPSILON));
        traced(workload, args, &inst, &sim, &tdma, r);
        return;
    }

    let mut counted = Counted::default();
    let mut failed = 0u64;
    let probe = Probe::new(1);
    let timing = timed_loop(args.seconds, COUNTED_OPS, &probe, &mut setup, |op| {
        let (t, out, net) = match (&sim, &tdma) {
            (Some(sim), _) => alg1_round(sim, &inst, args.seed, op),
            (None, Some(tdma)) => tdma_round(tdma, &inst, args.seed, op),
            (None, None) => unreachable!("set-up builds one simulator"),
        };
        if out.delivered != inst.expected {
            failed += 1;
        }
        if op < COUNTED_OPS {
            counted.add(&out, &net);
        }
        t
    });
    r.attempted = timing.op_ms.len() as u64;
    r.failed = failed;
    counted.report(if is_tdma { "tdma" } else { "alg1" }, r);
    end_to_end(r, &setup, "rounds", &timing);
}

/// Draws a uniform `a_bits`-bit string not in `avoid`, exactly as
/// Algorithm 1's implementation draws `r_v` and decoys (bounded resampling).
fn sample_avoiding(a_bits: usize, avoid: &HashSet<BitVec>, rng: &mut StdRng) -> BitVec {
    let mut r = BitVec::random_uniform(a_bits, rng);
    for _ in 0..64 {
        if !avoid.contains(&r) {
            break;
        }
        r = BitVec::random_uniform(a_bits, rng);
    }
    r
}

/// Per-run accumulators of the Algorithm 1 replay.
#[derive(Default)]
struct ReplayCounts {
    encode_calls: u64,
    set_calls: u64,
    set_accepts: u64,
    msg_calls: u64,
    useful: u64,
    net_beeps: u64,
    stats: RoundStats,
    matches: u64,
    ops: u64,
    /// (codeword, heard) word pairs for the `and_not_count` microtiming.
    pairs: Vec<(BitVec, BitVec)>,
}

/// Re-does one Algorithm 1 round with the public calls in the order the
/// implementation makes them, recording a span around each layer call.
/// Returns what it delivered.
#[allow(clippy::too_many_lines)]
fn replay_alg1(
    sim: &BroadcastSimulator,
    inst: &Instance,
    net: &mut BeepNetwork,
    rng: &mut StdRng,
    tr: &mut Tracer,
    op: u64,
    acc: &mut ReplayCounts,
) -> (Vec<Vec<Message>>, RoundStats) {
    let codes = sim.codes();
    let graph = &inst.graph;
    let n = graph.node_count();
    let root = tr.begin("core.round", None, op);

    // Encode: r_v, C(r_v), D(m_v), CD.
    let a_bits = codes.beep.params().input_bits();
    let mut drawn: HashSet<BitVec> = HashSet::new();
    let mut inputs: Vec<Option<BitVec>> = Vec::with_capacity(n);
    let mut phase1: Vec<Option<BitVec>> = Vec::with_capacity(n);
    let mut phase2: Vec<Option<BitVec>> = Vec::with_capacity(n);
    for msg in &inst.msgs {
        let m = msg.as_ref().expect("every node broadcasts");
        let r = sample_avoiding(a_bits, &drawn, rng);
        drawn.insert(r.clone());
        let (carrier, combined) = tr.span("codes.encode", Some(root), op, || {
            let carrier = codes.beep.encode(&r);
            let payload = codes.distance.encode(&m.to_bitvec());
            let combined =
                CombinedCode::combine(&carrier, &payload).expect("carrier weight = payload length");
            (carrier, combined)
        });
        acc.encode_calls += 3;
        inputs.push(Some(r));
        phase1.push(Some(carrier));
        phase2.push(Some(combined));
    }

    // Two frame phases on the network.
    let len = codes.phase_len();
    let mut heard1 = Vec::new();
    let mut heard2 = Vec::new();
    for (frames, heard) in [(&phase1, &mut heard1), (&phase2, &mut heard2)] {
        tr.span("net.phase", Some(root), op, || {
            net.run_frames_batched_into(frames, len, heard)
                .expect("frames have phase length");
        });
    }
    acc.net_beeps += net.stats().beeps;

    // Decode at every node: candidate pool, message pool and decoys.
    let set_decoder = SetDecoder::new(&codes.beep, EPSILON);
    let msg_decoder = MessageDecoder::new(&codes.distance);
    let candidates: Vec<(usize, BitVec)> = inputs
        .iter()
        .enumerate()
        .filter_map(|(v, r)| r.as_ref().map(|r| (v, r)))
        .map(|(v, r)| {
            acc.encode_calls += 1;
            (
                v,
                tr.span("codes.encode", Some(root), op, || codes.beep.encode(r)),
            )
        })
        .collect();
    let mut pool: Vec<BitVec> = inst.msgs.iter().flatten().map(Message::to_bitvec).collect();
    pool.sort_unstable_by_key(|b: &BitVec| b.to_string());
    pool.dedup();
    let decoys = sim.params().decoys;
    let decoy_words: Vec<BitVec> = (0..decoys)
        .map(|_| {
            let input = sample_avoiding(a_bits, &drawn, rng);
            acc.encode_calls += 1;
            tr.span("codes.encode", Some(root), op, || codes.beep.encode(&input))
        })
        .collect();
    for _ in 0..decoys {
        pool.push(BitVec::random_uniform(B, rng));
    }

    let mut stats = RoundStats {
        rounds: 1,
        transmitters: candidates.len(),
        ..RoundStats::default()
    };
    let mut delivered = Vec::with_capacity(n);
    for v in 0..n {
        // Phase 1: which candidate and decoy codewords does v accept?
        let (accepted, decoys_accepted) = tr.span("codes.set_decode", Some(root), op, || {
            let accepted: Vec<usize> = candidates
                .iter()
                .enumerate()
                .filter(|(_, (u, cw))| *u != v && set_decoder.accepts_codeword(cw, &heard1[v]))
                .map(|(i, _)| i)
                .collect();
            let decoys_accepted: Vec<usize> = decoy_words
                .iter()
                .enumerate()
                .filter(|(_, cw)| set_decoder.accepts_codeword(cw, &heard1[v]))
                .map(|(i, _)| i)
                .collect();
            (accepted, decoys_accepted)
        });
        acc.set_calls += (candidates.len() - 1 + decoy_words.len()) as u64;
        acc.set_accepts += (accepted.len() + decoys_accepted.len()) as u64;
        let degree = graph.neighbors(v).len();
        acc.useful += degree as u64;
        for (u, _) in &candidates {
            let is_neighbor = graph.has_edge(v, *u);
            if *u != v && is_neighbor && !accepted.iter().any(|&i| candidates[i].0 == *u) {
                stats.false_negatives += 1;
            }
        }
        // Phase 2: project and nearest-codeword decode each accepted one.
        let decoded: Vec<(usize, BitVec)> = tr.span("codes.msg_decode", Some(root), op, || {
            accepted
                .iter()
                .map(|&i| (candidates[i].0, &candidates[i].1))
                .chain(
                    decoys_accepted
                        .iter()
                        .map(|&i| (usize::MAX, &decoy_words[i])),
                )
                .filter_map(|(u, cw)| {
                    let projected =
                        CombinedCode::project(&heard2[v], cw).expect("heard has phase length");
                    msg_decoder
                        .decode_candidates(&projected, pool.iter())
                        .ok()
                        .map(|d| (u, d.message))
                })
                .collect()
        });
        acc.msg_calls += (accepted.len() + decoys_accepted.len()) as u64;
        let mut inbox = Vec::with_capacity(decoded.len());
        for (u, message) in decoded {
            if u == usize::MAX {
                stats.decoy_acceptances += 1;
            } else if graph.has_edge(v, u) {
                let truth = inst.msgs[u].as_ref().expect("transmitter").to_bitvec();
                if message != truth {
                    stats.message_errors += 1;
                }
            } else {
                stats.false_positives += 1;
            }
            inbox.push(Message::from_bits(&message));
        }
        stats.decoys_scored += decoy_words.len();
        inbox.sort_unstable();
        if inbox != inst.expected[v] {
            stats.imperfect_rounds = 1;
        }
        delivered.push(inbox);
        if acc.pairs.len() < 4096 {
            for (_, cw) in candidates.iter().take(8) {
                acc.pairs.push((cw.clone(), heard1[v].clone()));
            }
        }
    }
    tr.end(root);
    acc.stats.merge(&stats);
    (delivered, stats)
}

/// Nanoseconds per `BitVec::and_not_count` call on real codeword/heard pairs.
fn and_not_count_ns(pairs: &[(BitVec, BitVec)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let reps = (2_000_000 / pairs.len()).max(1);
    let t = Instant::now();
    let mut sum = 0usize;
    for _ in 0..reps {
        for (a, b) in pairs {
            sum += black_box(a).and_not_count(black_box(b));
        }
    }
    black_box(sum);
    t.elapsed().as_secs_f64() * 1e9 / (reps * pairs.len()) as f64
}

/// Re-does one TDMA round: frames from the public distance-2 colouring,
/// the frame phase on the network, and the majority-vote decode.
fn replay_tdma(
    tdma: &TdmaSimulator,
    coloring: &[usize],
    inst: &Instance,
    net: &mut BeepNetwork,
    tr: &mut Tracer,
    op: u64,
) -> Vec<Vec<Message>> {
    let root = tr.begin("core.tdma_round", None, op);
    let rep = tdma.repetition();
    let slot_len = (B + 1) * rep;
    let total = tdma.colors() * slot_len;
    let frames: Vec<Option<BitVec>> = tr.span("bits.tdma_frames", Some(root), op, || {
        inst.msgs
            .iter()
            .enumerate()
            .map(|(v, msg)| {
                msg.as_ref().map(|m| {
                    let base = coloring[v] * slot_len;
                    let bits = m.to_bitvec();
                    BitVec::from_fn(total, |i| {
                        if i < base || i >= base + slot_len {
                            return false;
                        }
                        let within = (i - base) / rep;
                        within == 0 || bits.get(within - 1)
                    })
                })
            })
            .collect()
    });
    let mut heard = Vec::new();
    tr.span("net.phase", Some(root), op, || {
        net.run_frames_batched_into(&frames, total, &mut heard)
            .expect("frames have slot length");
    });
    let delivered = (0..inst.graph.node_count())
        .map(|v| {
            let mut inbox: Vec<Message> = inst
                .graph
                .neighbors(v)
                .iter()
                .filter_map(|&u| {
                    let base = coloring[u] * slot_len;
                    let vote = |field: usize| {
                        let start = base + field * rep;
                        (start..start + rep).filter(|&i| heard[v].get(i)).count() > rep / 2
                    };
                    vote(0).then(|| {
                        let bits: Vec<bool> = (1..=B).map(vote).collect();
                        Message::from_bits(&BitVec::from_bools(&bits))
                    })
                })
                .collect();
            inbox.sort_unstable();
            inbox
        })
        .collect();
    tr.end(root);
    delivered
}

#[allow(clippy::too_many_lines)]
fn traced(
    workload: Workload,
    args: &Args,
    inst: &Instance,
    sim: &BroadcastSimulator,
    tdma: &TdmaSimulator,
    r: &mut Report,
) {
    let mut tr = Tracer::new();
    let coloring = distance2_coloring(&inst.graph);
    let n = inst.graph.node_count();
    let mut acc = ReplayCounts::default();
    let mut alg1_ms = Vec::new();
    let mut tdma_ms = Vec::new();
    let mut tdma_replay_ms = Vec::new();
    let mut tdma_matches = 0u64;
    let mut tdma_beeps = 0u64;
    let mut failed = 0u64;
    let mut alg1_rounds = 0u64;
    let mut tdma_rounds = 0u64;
    let start = Instant::now();
    let mut op = 0usize;
    while op < 4 || start.elapsed().as_secs_f64() < args.seconds {
        // The untimed-by-spans reference call, then its replay on the same
        // network seed and r_v stream.
        let (t, out, net) = alg1_round(sim, inst, args.seed, op);
        alg1_ms.push(t);
        alg1_rounds = net.stats().rounds as u64;
        failed += u64::from(out.delivered != inst.expected);
        let mut net = BeepNetwork::new(
            inst.graph.clone(),
            noise(),
            mix(mix(args.seed, TAG_ALG1_NET), op as u64),
        );
        let mut rng = StdRng::seed_from_u64(mix(mix(args.seed, TAG_RV), op as u64));
        let (delivered, stats) =
            replay_alg1(sim, inst, &mut net, &mut rng, &mut tr, op as u64, &mut acc);
        acc.ops += 1;
        acc.matches += u64::from(delivered == out.delivered && stats == out.stats);

        let (t, out, net) = tdma_round(tdma, inst, args.seed, op);
        tdma_ms.push(t);
        tdma_rounds = net.stats().rounds as u64;
        failed += u64::from(out.delivered != inst.expected);
        let mut net = BeepNetwork::new(
            inst.graph.clone(),
            noise(),
            mix(mix(args.seed, TAG_TDMA_NET), op as u64),
        );
        let t = Instant::now();
        let delivered = replay_tdma(tdma, &coloring, inst, &mut net, &mut tr, op as u64);
        tdma_replay_ms.push(ms(t.elapsed()));
        tdma_beeps += net.stats().beeps;
        tdma_matches += u64::from(delivered == out.delivered);
        op += 1;
    }
    tr.write(args);
    r.attempted = 2 * op as u64;
    r.failed = failed;
    let ops = acc.ops as f64;
    let primary_tdma = workload == Workload::TdmaDense;
    let replay_ms = tr.total_ms("core.round") / ops;
    let encode_ms = tr.total_ms("codes.encode") / ops;
    let set_ms = tr.total_ms("codes.set_decode") / ops;
    let msg_ms = tr.total_ms("codes.msg_decode") / ops;
    let phase_ms = tr.total_ms("net.phase") / ops;
    let alg1_p50 = median(&alg1_ms);
    let tdma_p50 = median(&tdma_ms);
    let tdma_phase_ms = tr
        .spans
        .iter()
        .filter(|s| {
            s.name == "net.phase" && tr.spans[s.parent.expect("child")].name == "core.tdma_round"
        })
        .map(|s| ms(s.end.saturating_sub(s.start)))
        .sum::<f64>()
        / ops;
    let alg1_phase_ms = phase_ms - tdma_phase_ms;
    let words = acc.pairs.first().map_or(0, |(a, _)| a.as_words().len());

    r.metric("bits.and_not_count_ns", and_not_count_ns(&acc.pairs), "ns");
    r.metric("bits.bytes_per_call", (2 * words * 8) as f64, "bytes");
    r.metric("codes.encode_ms", encode_ms, "ms");
    r.metric("codes.encode_calls", acc.encode_calls as f64 / ops, "count");
    r.metric("codes.set_decode_ms", set_ms, "ms");
    r.metric(
        "codes.set_decode_calls",
        acc.set_calls as f64 / ops,
        "count",
    );
    r.metric(
        "codes.set_accept_ratio",
        acc.set_accepts as f64 / acc.set_calls.max(1) as f64,
        "ratio",
    );
    r.metric("codes.msg_decode_ms", msg_ms, "ms");
    r.metric(
        "codes.msg_decode_calls",
        acc.msg_calls as f64 / ops,
        "count",
    );
    let (net_ms, net_rounds) = if primary_tdma {
        (tdma_phase_ms, tdma_rounds as f64)
    } else {
        (alg1_phase_ms, alg1_rounds as f64)
    };
    r.metric("net.phase_ms", net_ms, "ms");
    r.metric(
        "net.phase_node_rounds_per_s",
        n as f64 * net_rounds / (net_ms / 1e3),
        "node-rounds/s",
    );
    r.metric("net.rounds", net_rounds, "count");
    let beeps = if primary_tdma {
        tdma_beeps
    } else {
        acc.net_beeps
    };
    r.metric("net.beeps", beeps as f64 / ops, "count");
    r.metric("core.round_ms_p50", alg1_p50, "ms");
    r.metric("core.round_ms_p90", quantile(&alg1_ms, 0.9), "ms");
    r.metric("core.tdma_round_ms_p50", tdma_p50, "ms");
    r.metric("core.tdma_round_ms_p90", quantile(&tdma_ms, 0.9), "ms");
    // Mean call time minus the mean time of its replayed child spans; noise
    // can make it slightly negative when the core's own share is small.
    let alg1_mean = alg1_ms.iter().sum::<f64>() / ops;
    r.metric(
        "core.unattributed_ms",
        alg1_mean - (encode_ms + alg1_phase_ms + set_ms + msg_ms),
        "ms",
    );
    r.metric(
        "core.candidates_scored",
        acc.set_calls as f64 / ops,
        "count",
    );
    r.metric(
        "core.candidates_useful_ratio",
        acc.useful as f64 / acc.set_calls.max(1) as f64,
        "ratio",
    );
    r.metric(
        "core.false_negatives",
        acc.stats.false_negatives as f64,
        "count",
    );
    r.metric(
        "core.false_positives",
        acc.stats.false_positives as f64,
        "count",
    );
    r.metric(
        "core.decoy_acceptances",
        acc.stats.decoy_acceptances as f64,
        "count",
    );
    r.metric(
        "core.message_errors",
        acc.stats.message_errors as f64,
        "count",
    );
    r.metric("core.alg1_beep_rounds", alg1_rounds as f64, "count");
    r.metric("core.tdma_beep_rounds", tdma_rounds as f64, "count");
    let (p50, rounds) = if primary_tdma {
        (tdma_p50, tdma_rounds)
    } else {
        (alg1_p50, alg1_rounds)
    };
    r.metric("core.ns_per_beep_round", p50 * 1e6 / rounds as f64, "ns");
    let root = if primary_tdma {
        "core.tdma_round"
    } else {
        "core.round"
    };
    r.metric("trace.coverage", tr.coverage(root), "ratio");
    let overhead = if primary_tdma {
        median(&tdma_replay_ms) / tdma_p50
    } else {
        replay_ms / alg1_p50
    };
    r.metric("trace.overhead_ratio", overhead, "ratio");
    let matches = if primary_tdma {
        tdma_matches
    } else {
        acc.matches
    };
    r.metric("trace.replay_match", matches as f64 / ops, "ratio");
    r.check(matches == acc.ops, || {
        format!(
            "replay matched simulate_round on {matches} of {} rounds",
            acc.ops
        )
    });
}
