//! The `campaign_mix` workload: the checked-in 180-cell spec through
//! `run_campaign_with_sink` at `nproc` worker threads. One operation is one
//! whole campaign; its makespan is what a user waits for.
//!
//! The traced run re-runs every cell sequentially through the public calls
//! the executor makes (`TopologyFamily::build`, `ChannelSpec::build`,
//! `Protocol::run_with_faults`) and times native maximal matching on the
//! campaign's matching graphs.

use crate::common::{
    end_to_end, median, mix, ms, timed_loop, Args, Fnv, Probe, Report, Setup, Tracer,
};
use beep_apps::Protocol;
use beep_congest::algorithms::MaximalMatching;
use beep_congest::{validate, BroadcastRunner};
use beep_net::{BeepNetwork, FaultPlan, Graph, Noise};
use beep_scenarios::{
    cell_seed, run_campaign_with_sink, validate_report, CampaignReport, CampaignSpec, CellSpec,
    CellStatus, InstanceCache, MemorySink, RunOptions,
};
use std::collections::BTreeMap;
use std::time::Instant;

const SPEC: &str = include_str!("../campaign_mix.toml");
/// Share of a run spent repeating the set-up (see `Setup`).
const SETUP_SHARE: f64 = 0.05;
/// Campaigns every run makes (after one untimed warm-up).
const MIN_CAMPAIGNS: usize = 3;
const TAG_SWEEP: u64 = 0xCA3F;

/// The spec as the workload runs it, plus the layer timings of preparing it.
struct Prepared {
    spec: CampaignSpec,
    cells: Vec<CellSpec>,
    /// Topology instances keyed like the executor's instance cache.
    instances: BTreeMap<String, Graph>,
    parse_ms: f64,
    expand_ms: f64,
    build_ms: f64,
}

/// The executor's instance key: one topology instance per
/// family × size × sweep seed, seeded from the key.
fn instance_key(cell: &CellSpec) -> String {
    format!(
        "{}/n{}/s{}/topology",
        cell.family.label(),
        cell.requested_n,
        cell.sweep_seed
    )
}

fn prepare(seed: u64) -> Prepared {
    let t = Instant::now();
    let mut spec = CampaignSpec::parse(SPEC).expect("the checked-in spec parses");
    // Two sweep seeds derived from the workload seed.
    let first = mix(seed, TAG_SWEEP) % 1_000_000;
    spec.seeds = vec![first, first + 1];
    let parse_ms = ms(t.elapsed());
    let t = Instant::now();
    let cells = spec.expand().expect("the spec expands");
    let expand_ms = ms(t.elapsed());
    let t = Instant::now();
    let mut instances = BTreeMap::new();
    for cell in &cells {
        let key = instance_key(cell);
        instances.entry(key).or_insert_with_key(|key| {
            cell.family
                .build(cell.requested_n, cell_seed(key))
                .expect("every spec topology is realizable")
                .0
        });
    }
    let build_ms = ms(t.elapsed());
    Prepared {
        spec,
        cells,
        instances,
        parse_ms,
        expand_ms,
        build_ms,
    }
}

/// One campaign at `threads` workers; returns the makespan (ms) and report.
fn campaign(p: &Prepared, threads: usize) -> (f64, CampaignReport) {
    let mut sink = MemorySink::new(p.spec.name.clone(), p.cells.len());
    let options = RunOptions {
        threads,
        max_cells: None,
    };
    let t = Instant::now();
    let completed = run_campaign_with_sink(&p.spec, &options, &InstanceCache::new(), &mut sink)
        .expect("the campaign runs");
    let makespan = ms(t.elapsed());
    assert_eq!(completed, p.cells.len(), "every cell completes");
    let report = sink.try_into_report(makespan).expect("every cell recorded");
    (makespan, report)
}

/// Checks one campaign's report and returns (failed cells, fingerprint of
/// the timing-free report).
fn check(report: &CampaignReport, r: &mut Report) -> (u64, u64) {
    if let Err(e) = validate_report(&report.to_json(true)) {
        r.problems
            .push(format!("validate_report rejected the report: {e}"));
    }
    let failed = report
        .cells
        .iter()
        .filter(|c| c.status != CellStatus::Ok || !c.success)
        .inspect(|c| eprintln!("cell {} failed: {:?} {}", c.id, c.status, c.detail))
        .count() as u64;
    let mut fnv = Fnv::new();
    fnv.bytes(report.to_json(false).to_compact().as_bytes());
    (failed, fnv.finish())
}

pub fn run(args: &Args, r: &mut Report) {
    let threads = crate::common::nproc();
    let seed = args.seed;
    let share = if args.trace { 0.0 } else { SETUP_SHARE };
    let (mut setup, p) = Setup::first(share, move || prepare(seed));
    for (key, graph) in &p.instances {
        let net = BeepNetwork::new(graph.clone(), Noise::Noiseless, 0);
        r.kernels.push((key.clone(), net.kernel_label().into()));
    }

    // Warm-up campaign: untimed, but checked and counted.
    let (_, warm) = campaign(&p, threads);
    let (mut failed, fingerprint) = check(&warm, r);
    let mut attempted = warm.cells.len() as u64;
    r.count("campaign.cells", warm.cells.len() as u64);
    r.count(
        "campaign.rounds",
        warm.cells.iter().map(|c| c.rounds as u64).sum(),
    );
    r.count("campaign.beeps", warm.cells.iter().map(|c| c.beeps).sum());
    r.count("campaign.report_fnv", fingerprint);

    if args.trace {
        traced(args, &p, threads, r);
        r.attempted += attempted;
        r.failed += failed;
        return;
    }

    let probe = Probe::new(threads);
    let mut mismatches = 0;
    let timing = timed_loop(args.seconds, MIN_CAMPAIGNS, &probe, &mut setup, |_| {
        let (makespan, report) = campaign(&p, threads);
        let (bad, fnv) = check(&report, r);
        failed += bad;
        attempted += report.cells.len() as u64;
        mismatches += usize::from(fnv != fingerprint);
        makespan
    });
    r.check(mismatches == 0, || {
        format!("{mismatches} campaigns' timing-free reports differ from the first")
    });
    r.attempted = attempted;
    r.failed = failed;
    end_to_end(r, &setup, "campaigns", &timing);
}

/// Native Broadcast CONGEST maximal matching on `graph`: (wall ms, rounds).
fn native_matching(graph: &Graph, seed: u64, r: &mut Report) -> (f64, usize) {
    let n = graph.node_count();
    let iters = MaximalMatching::suggested_iterations(n);
    let runner = BroadcastRunner::new(graph, MaximalMatching::required_message_bits(n), seed);
    let mut algos: Vec<Box<MaximalMatching>> = (0..n)
        .map(|_| Box::new(MaximalMatching::new(iters)))
        .collect();
    let t = Instant::now();
    let report = runner
        .run_to_completion(&mut algos, MaximalMatching::rounds_for(iters))
        .expect("native matching completes");
    let wall = ms(t.elapsed());
    let output: Vec<_> = algos
        .iter()
        .map(|a| a.output().expect("runner completed"))
        .collect();
    let violations = validate::check_matching(graph, &output);
    r.check(violations.is_empty(), || {
        format!("native matching violations: {violations:?}")
    });
    (wall, report.rounds)
}

#[allow(clippy::too_many_lines)]
fn traced(args: &Args, p: &Prepared, threads: usize, r: &mut Report) {
    let (makespan, report) = campaign(p, threads);
    let (failed, _) = check(&report, r);
    r.attempted += report.cells.len() as u64;
    r.failed += failed;
    let cell_sum: f64 = report.cells.iter().map(|c| c.wall_ms).sum();

    // Sequential replay of every cell through the executor's public calls.
    let mut tr = Tracer::new();
    let mut per_protocol: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut matches = 0usize;
    let mut matching_sim_ms = 0.0;
    let mut matching_graphs: Vec<(&Graph, u64)> = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while passes < 1 || start.elapsed().as_secs_f64() < args.seconds {
        for (i, cell) in p.cells.iter().enumerate() {
            let op = (passes * p.cells.len() + i) as u64;
            let root = tr.begin("scenarios.cell", None, op);
            let key = instance_key(cell);
            let (graph, _) = tr.span("scenarios.instance_build", Some(root), op, || {
                cell.family
                    .build(cell.requested_n, cell_seed(&key))
                    .expect("realizable")
            });
            let channel = tr.span("scenarios.channel_build", Some(root), op, || {
                cell.channel
                    .build(graph.node_count())
                    .expect("valid channel")
            });
            let t = Instant::now();
            let outcome = tr.span("apps.run", Some(root), op, || {
                cell.protocol
                    .run_with_faults(&graph, &channel, &FaultPlan::none(), cell.cell_seed)
            });
            let run_ms = ms(t.elapsed());
            tr.end(root);
            per_protocol
                .entry(cell.protocol.name())
                .or_default()
                .push(run_ms);
            let done = &report.cells[i];
            if let Ok(o) = &outcome {
                if passes == 0 {
                    matches += usize::from(
                        o.success == done.success
                            && o.rounds == done.rounds
                            && o.beeps == done.beeps,
                    );
                }
            }
            if cell.protocol == Protocol::Matching && passes == 0 {
                matching_sim_ms += run_ms;
                let g = &p.instances[&key];
                if !matching_graphs.iter().any(|(h, _)| std::ptr::eq(*h, g)) {
                    matching_graphs.push((g, cell.cell_seed));
                }
            }
        }
        passes += 1;
    }
    tr.write(args);

    // Native Broadcast CONGEST matching on the same graphs.
    let mut native_ms = 0.0;
    let mut native_rounds = 0usize;
    let mut native_runs = 0usize;
    let reps = 20;
    for &(g, seed) in &matching_graphs {
        for k in 0..reps {
            let (wall, rounds) = native_matching(g, seed ^ k, r);
            native_ms += wall;
            native_rounds += rounds;
            native_runs += 1;
        }
    }
    let matching_cells = p
        .cells
        .iter()
        .filter(|c| c.protocol == Protocol::Matching)
        .count();

    let s = report.summary();
    let replayed = (passes * p.cells.len()) as f64;
    r.metric(
        "congest.native_round_us",
        native_ms * 1e3 / native_rounds.max(1) as f64,
        "us",
    );
    r.metric(
        "congest.sim_overhead_x",
        (matching_sim_ms / matching_cells.max(1) as f64) / (native_ms / native_runs.max(1) as f64),
        "ratio",
    );
    for protocol in [
        "matching",
        "mis",
        "coloring",
        "round_sim",
        "tdma",
        "beep_consensus",
    ] {
        let v = per_protocol.get(protocol).map_or(0.0, |t| median(t));
        r.metric(&format!("apps.{protocol}.cell_ms_p50"), v, "ms");
    }
    r.metric("scenarios.parse_ms", p.parse_ms, "ms");
    r.metric("scenarios.expand_ms", p.expand_ms, "ms");
    r.metric("scenarios.instance_build_ms", p.build_ms, "ms");
    r.metric(
        "scenarios.parallel_efficiency",
        cell_sum / (threads as f64 * makespan),
        "ratio",
    );
    r.metric(
        "scenarios.executor_overhead_ms",
        makespan - cell_sum / threads as f64,
        "ms",
    );
    r.metric("scenarios.cells_ok", s.ok as f64, "count");
    r.metric("scenarios.cells_failed", s.failed as f64, "count");
    r.metric("scenarios.cells_skipped", s.skipped as f64, "count");
    r.metric(
        "scenarios.cells_per_s",
        p.cells.len() as f64 / (makespan / 1e3),
        "cells/s",
    );
    r.metric("trace.coverage", tr.coverage("scenarios.cell"), "ratio");
    r.metric(
        "trace.overhead_ratio",
        (tr.total_ms("scenarios.cell") / replayed) / (cell_sum / p.cells.len() as f64),
        "ratio",
    );
    r.metric(
        "trace.replay_match",
        matches as f64 / p.cells.len() as f64,
        "ratio",
    );
    r.check(matches == p.cells.len(), || {
        format!(
            "replay matched the campaign on {matches} of {} cells",
            p.cells.len()
        )
    });
}
