//! Shared pieces of the benchmark: arguments, seeding, fingerprints,
//! quantiles, host facts, the metric/report printer and the span tracer.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Command-line arguments: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64 finaliser: derives an independent 64-bit stream seed from the
/// workload seed and a tag, so every generated input depends on `--seed`.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: the exact-count fingerprints of heard
/// strings, deliveries and reports.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Median (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile of an unsorted sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One stderr line describing a run's operation times.
fn describe(what: &str, times: &[f64]) {
    eprintln!(
        "{} {what} timed; min {:.3} p10 {:.3} p25 {:.3} p50 {:.3} p90 {:.3} max {:.3} ms",
        times.len(),
        quantile(times, 0.0),
        quantile(times, 0.1),
        quantile(times, 0.25),
        quantile(times, 0.5),
        quantile(times, 0.9),
        quantile(times, 1.0)
    );
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The host-speed probe: a fixed kernel owned by the benchmark (eight
/// passes of `popcount(a & !b)` over two 256 KiB arrays, L2-resident), run
/// right after every timed operation on as many threads as the operation
/// uses. On a shared host the speed of a vCPU drifts with other tenants'
/// load; the probe's median pass drifts in step with a workload's median
/// operation of the same run (see RATIONALE.md), so their ratio cancels the
/// drift.
pub struct Probe {
    a: Vec<u64>,
    b: Vec<u64>,
    threads: usize,
}

/// Share of each operation's time spent probing after it.
const PROBE_SHARE: f64 = 0.03;

impl Probe {
    pub fn new(threads: usize) -> Probe {
        let words = 32 * 1024;
        Probe {
            a: (0..words).map(|i| mix(i, 0xA)).collect(),
            b: (0..words).map(|i| mix(i, 0xB)).collect(),
            threads: threads.max(1),
        }
    }

    fn kernel(&self) -> u64 {
        let mut sum = 0u64;
        for _ in 0..8 {
            for (x, y) in black_box(&self.a).iter().zip(black_box(&self.b)) {
                sum += u64::from((x & !y).count_ones());
            }
        }
        black_box(sum)
    }

    /// Runs the kernel on every probe thread at once for about `budget_ms`
    /// (at least once) and returns the wall time of one kernel pass on the
    /// slowest thread, in ms.
    pub fn measure(&self, budget_ms: f64) -> f64 {
        let start = Instant::now();
        let passes = || {
            let mut n = 0u32;
            loop {
                self.kernel();
                n += 1;
                if ms(start.elapsed()) >= budget_ms {
                    return n;
                }
            }
        };
        let slowest = std::thread::scope(|s| {
            let others: Vec<_> = (1..self.threads).map(|_| s.spawn(passes)).collect();
            let mine = passes();
            others
                .into_iter()
                .map(|h| h.join().expect("probe threads do not panic"))
                .fold(mine, u32::min)
        });
        ms(start.elapsed()) / f64::from(slowest)
    }
}

/// Operation times of one run, each followed by a probe measurement.
pub struct Timing {
    pub op_ms: Vec<f64>,
    pub probe_ms: Vec<f64>,
}

/// Runs `op` until `seconds` have passed and at least `min_ops` operations
/// ran. `op` times itself (so untimed checks can follow it) and returns
/// its wall time in ms; the probe runs after each operation, and then the
/// set-up is repeated while set-ups have taken less than their share of
/// the run so far.
pub fn timed_loop(
    seconds: f64,
    min_ops: usize,
    probe: &Probe,
    setup: &mut Setup<'_>,
    mut op: impl FnMut(usize) -> f64,
) -> Timing {
    let start = Instant::now();
    let mut t = Timing {
        op_ms: Vec::new(),
        probe_ms: Vec::new(),
    };
    while t.op_ms.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let op_ms = op(t.op_ms.len());
        t.op_ms.push(op_ms);
        t.probe_ms.push(probe.measure(PROBE_SHARE * op_ms));
        while setup.repeated_s < setup.share * start.elapsed().as_secs_f64() {
            setup.repeat();
        }
    }
    t
}

/// The reference probe pass, in ms: about an uncontended pass on the host
/// the benchmark was tuned on (2.1 GHz Xeon vCPU, 2 MiB L2). `setup_s` is
/// stated at this host speed.
const PROBE_REFERENCE_MS: f64 = 0.25;

/// Pushes the end-to-end metrics of an untraced run and describes the
/// operation, probe and set-up times on stderr.
///
/// `setup_s` is the median set-up wall time scaled by the reference probe
/// pass ÷ the run's median probe pass: the set-up time in seconds on a host
/// running at the reference speed. Like `op_cost_x`, it cancels the drift
/// of the shared host's speed between runs, which moves the plain median
/// by about a fifth.
pub fn end_to_end(r: &mut Report, setup: &Setup<'_>, what: &str, t: &Timing) {
    let pace = PROBE_REFERENCE_MS / median(&t.probe_ms);
    r.metric("op_cost_x", median(&t.op_ms) / median(&t.probe_ms), "x");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("setup_s", median(&setup.secs) * pace, "s");
    describe(what, &t.op_ms);
    describe("probes", &t.probe_ms);
    let setup_ms: Vec<f64> = setup.secs.iter().map(|s| s * 1e3).collect();
    describe("set-ups", &setup_ms);
}

/// A workload's set-up and the wall time of every time it ran.
///
/// `setup_s` comes from the median over all set-ups of a run. The first one
/// builds the instance the operations use; `timed_loop` repeats it between
/// operations (building and dropping a throwaway copy) so that set-ups take
/// about `share` of the run. The median thus covers the whole run rather
/// than its first milliseconds: a shared host's speed moves by tens of
/// percent within a second, and a set-up of a tenth of a millisecond sees
/// all of it.
pub struct Setup<'a> {
    rebuild: Box<dyn FnMut() -> f64 + 'a>,
    share: f64,
    repeated_s: f64,
    pub secs: Vec<f64>,
}

impl<'a> Setup<'a> {
    /// Runs `build` once, timed, and returns its result with the set-up
    /// that `timed_loop` repeats at `share` of the run (0 never repeats).
    pub fn first<T: 'a>(share: f64, mut build: impl FnMut() -> T + 'a) -> (Setup<'a>, T) {
        let t = Instant::now();
        let built = build();
        let secs = vec![t.elapsed().as_secs_f64()];
        let rebuild = Box::new(move || {
            let t = Instant::now();
            let copy = black_box(build());
            let s = t.elapsed().as_secs_f64();
            drop(copy);
            s
        });
        let setup = Setup {
            rebuild,
            share,
            repeated_s: 0.0,
            secs,
        };
        (setup, built)
    }

    fn repeat(&mut self) {
        let s = (self.rebuild)();
        self.repeated_s += s;
        self.secs.push(s);
    }
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the benchmark may use: `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// L2 and last-level cache sizes of CPU 0 in bytes, from sysfs (0 if absent).
pub fn cache_sizes() -> (u64, u64) {
    let mut l2 = 0;
    let mut llc = 0;
    let mut llc_level = 0;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().unwrap_or(0) * 1024
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().unwrap_or(0) * 1024 * 1024
        } else {
            size.parse().unwrap_or(0)
        };
        if level == 2 {
            l2 = bytes;
        }
        if level >= llc_level {
            llc_level = level;
            llc = bytes;
        }
    }
    (l2, llc)
}

/// Everything one run prints: metrics for the final JSON line, exact
/// simulation counts, kernel labels, and the failure accounting.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Exact counts that must repeat across runs of one seed.
    pub counts: Vec<(String, u64)>,
    /// Network kernel labels (`name`, `kernel_label()`), printed as host facts.
    pub kernels: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed invariant checks (beyond per-operation failures).
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints the host facts and exact counts as two JSON lines, a readable
    /// summary on stderr, and the result object as the last stdout line.
    pub fn print(&self, args: &Args) {
        let (l2, llc) = cache_sizes();
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        println!(
            "{{\"host\": {{\"nproc\": {}, \"l2_bytes\": {l2}, \"llc_bytes\": {llc}, \"kernels\": {{{}}}}}}}",
            nproc(),
            kernels.join(", ")
        );
        let mut counts = format!(
            "\"workload\": {}, \"seed\": {}",
            json_str(&args.workload),
            args.seed
        );
        for (k, v) in &self.counts {
            let _ = write!(counts, ", {}: {v}", json_str(k));
        }
        println!("{{\"counts\": {{{counts}}}}}");
        for p in &self.problems {
            eprintln!("CHECK FAILED: {p}");
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            eprintln!("  {name:<36} {value:>16.6} {unit}");
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One recorded span: a timed call into a layer, made by the benchmark.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

/// In-memory span recorder for traced runs; spans are written out when the
/// run ends (see [`Tracer::write`]).
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    fn dur_ms(s: &Span) -> f64 {
        ms(s.end.saturating_sub(s.start))
    }

    /// Total duration (ms) of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::dur_ms)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Per span: the total duration (ms) of its direct children.
    fn child_ms(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += Self::dur_ms(s);
            }
        }
        child
    }

    /// Self time (ms) of every span called `name`: its duration minus the
    /// part its child spans cover (children never overlap here: the
    /// replays are sequential).
    pub fn self_ms(&self, name: &str) -> f64 {
        let child = self.child_ms();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| Self::dur_ms(s) - child[i])
            .sum()
    }

    /// Σ child spans ÷ parent span, over every span called `root`.
    pub fn coverage(&self, root: &str) -> f64 {
        let child = self.child_ms();
        let (mut parent_ms, mut child_ms) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                parent_ms += Self::dur_ms(s);
                child_ms += child[i];
            }
        }
        if parent_ms > 0.0 {
            child_ms / parent_ms
        } else {
            0.0
        }
    }

    /// Prints calls, total and self time per span name to stderr.
    pub fn summary(&self) {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        eprintln!(
            "  {:<28} {:>8} {:>12} {:>12}",
            "span", "calls", "total_ms", "self_ms"
        );
        for name in names {
            eprintln!(
                "  {name:<28} {:>8} {:>12.3} {:>12.3}",
                self.calls(name),
                self.total_ms(name),
                self.self_ms(name)
            );
        }
    }

    /// Writes every span as one tab-separated line
    /// (`op name start_ns end_ns parent`) to `perfbench/out/`.
    pub fn write(&self, args: &Args) {
        let dir = std::path::Path::new("perfbench").join("out");
        if std::fs::create_dir_all(&dir).is_err() {
            eprintln!("trace: cannot create {}", dir.display());
            return;
        }
        let path = dir.join(format!("spans-{}-s{}.tsv", args.workload, args.seed));
        let mut text = String::from("op\tname\tstart_ns\tend_ns\tparent\n");
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{parent}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        self.summary();
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!(
                "trace: {} spans written to {}",
                self.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
    }
}
