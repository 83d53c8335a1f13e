//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bb-quiet|bb-fallback|svc-sim|svc-tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload back to back for `--seconds`, checks every run's
//! outputs, prints one line per metric, and ends with one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for what each workload and
//! metric means.

mod bb;
mod measure;
mod probes;
mod svc;
mod svc_sim;
mod svc_tcp;
mod traced;

use measure::{peak_rss_mb, print_result, Metric, Samples};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use traced::LayerTotals;

/// Untraced runs of a workload in one invocation, at least.
const MIN_REPS: usize = 3;

/// Times each run sets its workload up; `setup_s` is the median of all.
pub const SETUP_REPEATS: usize = 5;

/// Per-layer metrics, in report order, with their units.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("engine.self_s", "s"),
    ("engine.steps", "count"),
    ("engine.idle_steps", "count"),
    ("engine.useful_step_share", "share"),
    ("engine.deliveries", "count"),
    ("engine.ns_per_step", "ns"),
    ("engine.ns_per_delivery", "ns"),
    ("engine.overruns", "count"),
    ("engine.escalations", "count"),
    ("sim.self_s", "s"),
    ("sim.steps", "count"),
    ("sim.idle_steps", "count"),
    ("sim.useful_step_share", "share"),
    ("sim.deliveries", "count"),
    ("sim.ns_per_step", "ns"),
    ("sim.ns_per_delivery", "ns"),
    ("core.step_s", "s"),
    ("core.step_p50_ns", "ns"),
    ("core.step_p99_ns", "ns"),
    ("core.msgs_out", "count"),
    ("core.copies_out", "count"),
    ("core.words_out", "count"),
    ("core.sigs_in", "count"),
    ("fallback.msgs_out", "count"),
    ("fallback.words_out", "count"),
    ("fallback.word_share", "share"),
    ("service.step_s", "s"),
    ("service.step_p50_ns", "ns"),
    ("service.step_p99_ns", "ns"),
    ("service.msgs_out", "count"),
    ("service.copies_out", "count"),
    ("service.words_out", "count"),
    ("service.sigs_in", "count"),
    ("service.batches", "count"),
    ("service.ops_per_batch", "ops"),
    ("service.port_submit_ns", "ns"),
    ("service.port_read_ns", "ns"),
    ("service.client_submit_us", "us"),
    ("crypto.verify_ns", "ns"),
    ("crypto.verify_threshold_ns", "ns"),
    ("crypto.sign_ns", "ns"),
    ("crypto.combine_ns", "ns"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.frame_ns", "ns"),
    ("codec.bytes_per_msg", "bytes"),
    ("journal.appends", "count"),
    ("journal.append_p50_ns", "ns"),
    ("journal.append_p99_ns", "ns"),
    ("journal.syncs", "count"),
    ("journal.sync_p50_us", "us"),
    ("journal.sync_p99_us", "us"),
    ("journal.bytes", "bytes"),
    ("wire.frames", "count"),
    ("wire.socket_bytes", "bytes"),
    ("wire.frames_per_round", "count"),
    ("wire.bytes_per_word", "bytes"),
    ("wire.frames_dropped", "count"),
    ("wire.reconnects", "count"),
    ("wire.backpressure", "count"),
    ("wire.non_step_cpu_s", "s"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// Per-layer values of one traced run; metrics a workload does not
/// exercise stay absent and report 0.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "unlisted layer metric {name}");
        self.0.insert(name.to_string(), value);
    }

    /// The round-engine metrics of `layer` (`engine` or `sim`), given
    /// the engine's own time and the traced actors' totals.
    pub fn engine(&mut self, layer: &str, self_ns: f64, t: &LayerTotals) {
        let steps = t.steps as f64;
        self.set(&format!("{layer}.self_s"), self_ns / 1e9);
        self.set(&format!("{layer}.steps"), steps);
        self.set(&format!("{layer}.idle_steps"), t.idle_steps as f64);
        self.set(&format!("{layer}.useful_step_share"), ratio(steps - t.idle_steps as f64, steps));
        self.set(&format!("{layer}.deliveries"), t.deliveries as f64);
        self.set(&format!("{layer}.ns_per_step"), ratio(self_ns, steps));
        self.set(&format!("{layer}.ns_per_delivery"), ratio(self_ns, t.deliveries as f64));
    }

    /// The actor-step metrics of `layer` (`core` or `service`).
    pub fn actor(&mut self, layer: &str, t: &LayerTotals) {
        self.set(&format!("{layer}.step_s"), t.step_ns as f64 / 1e9);
        self.set(&format!("{layer}.step_p50_ns"), t.busy_ns.quantile(0.5));
        self.set(&format!("{layer}.step_p99_ns"), t.busy_ns.quantile(0.99));
        self.set(&format!("{layer}.msgs_out"), t.msgs_out as f64);
        self.set(&format!("{layer}.copies_out"), t.copies_out as f64);
        self.set(&format!("{layer}.words_out"), t.words_out as f64);
        self.set(&format!("{layer}.sigs_in"), t.sigs_in as f64);
    }
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One run of a workload: set up, run, check.
#[derive(Debug, Default)]
pub struct Rep {
    /// Set-up times, [`SETUP_REPEATS`] of them.
    pub setup_s: Samples,
    pub run_s: f64,
    pub cpu_s: f64,
    pub words: u64,
    pub bytes: u64,
    pub messages: u64,
    pub rounds: u64,
    /// Rounds that overran δ (wall-clock backends only).
    pub overruns: u64,
    /// Operations offered, and those refused, never acknowledged, or
    /// wrong (a failed check fails every operation of the run).
    pub attempted: u64,
    pub failed: u64,
    /// Operations (or decisions) completed, for `ops_per_s`.
    pub ops_done: u64,
    pub commit_rounds: Samples,
    pub read_rounds: Samples,
    pub commit_ms: Samples,
    /// Everything the run decided, for the transparency self-test.
    pub fingerprint: String,
    pub layers: Option<Layers>,
}

impl Rep {
    pub fn new(setup_s: Samples, run_s: f64, cpu_s: f64) -> Self {
        Rep { setup_s, run_s, cpu_s, ..Rep::default() }
    }

    /// What the transparency self-test compares between a traced and an
    /// untraced run.
    fn outputs(&self) -> (u64, u64, u64, u64, &str) {
        (self.words, self.bytes, self.messages, self.rounds, &self.fingerprint)
    }
}

/// The words the [`traced::Traced`] layers counted must be the words the
/// runtime counted; a mismatch fails the run.
pub fn check_traced_words(rep: &mut Rep, traced_words: u64) {
    if traced_words != rep.words {
        eprintln!("check failed: traced words {traced_words} != runtime words {}", rep.words);
        rep.failed = rep.attempted;
    }
}

enum Workload {
    Bb(bb::BbWorkload),
    SvcSim(svc_sim::SvcSim),
    SvcTcp(svc_tcp::SvcTcp),
}

impl Workload {
    fn new(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "bb-quiet" => Workload::Bb(bb::BbWorkload::quiet(seed)),
            "bb-fallback" => Workload::Bb(bb::BbWorkload::fallback(seed)),
            "svc-sim" => Workload::SvcSim(svc_sim::SvcSim::new(seed)),
            "svc-tcp" => Workload::SvcTcp(svc_tcp::SvcTcp::new(seed)),
            _ => return None,
        })
    }

    fn rep(&self, traced: bool) -> Rep {
        match self {
            Workload::Bb(w) => w.rep(traced),
            Workload::SvcSim(w) => w.rep(traced),
            Workload::SvcTcp(w) => w.rep(traced),
        }
    }

    /// Whether two runs on the same inputs must produce identical
    /// outputs (false for the wall-clock backend).
    fn deterministic(&self) -> bool {
        !matches!(self, Workload::SvcTcp(_))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.seed) else {
        eprintln!("error: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let budget = Duration::from_secs(args.seconds.max(1));
    if args.trace {
        traced_runs(&workload, budget);
    } else {
        plain_runs(&workload, budget);
    }
}

/// Runs `one` at least `min_reps` times, then again while the next run
/// is expected to end within `budget`.
fn repeat(budget: Duration, min_reps: usize, mut one: impl FnMut()) {
    let start = Instant::now();
    let mut reps = 0;
    let mut longest = 0.0f64;
    loop {
        let t0 = Instant::now();
        one();
        longest = longest.max(t0.elapsed().as_secs_f64());
        reps += 1;
        let next_end = start.elapsed().as_secs_f64() + longest;
        if reps >= min_reps && next_end > budget.as_secs_f64() {
            break;
        }
    }
}

fn plain_runs(workload: &Workload, budget: Duration) {
    let mut reps = Vec::new();
    // The single-threaded backends run each workload run on the next
    // core in turn: each core's speed moves on its own for minutes at a
    // time (neighbours on a shared host), and turns average over them.
    let cores = if workload.deterministic() { measure::allowed_cpus() } else { Vec::new() };
    repeat(budget, MIN_REPS, || {
        if !cores.is_empty() {
            measure::pin_to_cpu(cores[reps.len() % cores.len()]);
        }
        reps.push(workload.rep(false));
    });
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let per_run = |f: &dyn Fn(&Rep) -> f64| {
        let mut s = Samples::default();
        for r in &reps {
            s.push(f(r));
        }
        s
    };
    let mut setup_s = Samples::default();
    for r in &reps {
        setup_s.extend(&r.setup_s);
    }
    let commit_rounds: Vec<_> = reps.iter().map(|r| &r.commit_rounds).collect();
    let commit_ms: Vec<_> = reps.iter().map(|r| &r.commit_ms).collect();
    let read_rounds: Vec<_> = reps.iter().map(|r| &r.read_rounds).collect();
    // Timings are means over the runs, and `ops_per_s` is all completed
    // ops over all run time: the host's speed moves between levels for
    // minutes at a time, and where runs straddle two levels a mean lands
    // between them while a median jumps to one (see README).
    let reps_s: f64 = reps.iter().map(|r| r.run_s).sum();
    let metrics = vec![
        Metric::median("setup_s", "s", &setup_s),
        Metric::mean("run_s", "s", &per_run(&|r| r.run_s)),
        Metric::mean("cpu_s", "s", &per_run(&|r| r.cpu_s)),
        Metric::value("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::median("words", "count", &per_run(&|r| r.words as f64)),
        Metric::median("bytes", "bytes", &per_run(&|r| r.bytes as f64)),
        Metric::summary(
            "ops_per_s",
            "1/s",
            ratio(reps.iter().map(|r| r.ops_done).sum::<u64>() as f64, reps_s),
            &per_run(&|r| ratio(r.ops_done as f64, r.run_s)),
        ),
        Metric::per_run_quantile("commit_p50_rounds", "rounds", &commit_rounds, 0.5),
        Metric::per_run_quantile("commit_p99_rounds", "rounds", &commit_rounds, 0.99),
        Metric::per_run_quantile("read_p99_rounds", "rounds", &read_rounds, 0.99),
        Metric::per_run_quantile("commit_p50_ms", "ms", &commit_ms, 0.5),
        Metric::per_run_quantile("commit_p99_ms", "ms", &commit_ms, 0.99),
        Metric::value("ok_share", "share", 1.0 - ratio(failed as f64, attempted as f64)),
        Metric::value(
            "on_time_share",
            "share",
            1.0 - ratio(
                reps.iter().map(|r| r.overruns).sum::<u64>() as f64,
                reps.iter().map(|r| r.rounds).sum::<u64>() as f64,
            ),
        ),
    ];
    print_result(failed == 0 && attempted > 0, attempted.max(1), failed, &metrics);
}

fn traced_runs(workload: &Workload, budget: Duration) {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    repeat(budget, 1, || {
        plain.push(workload.rep(false));
        traced.push(workload.rep(true));
    });
    let mut transparent = true;
    if workload.deterministic() {
        for (p, t) in plain.iter().zip(&traced) {
            if p.outputs() != t.outputs() {
                eprintln!(
                    "transparency check failed: untraced {:?} vs traced {:?}",
                    p.outputs(),
                    t.outputs()
                );
                transparent = false;
            }
        }
    }
    // Tracing overhead: the share of a traced run that the tracing adds,
    // on wall time for the single-threaded backends and on CPU time for
    // the wall-clock one (whose run length the load schedule fixes).
    let cost = |reps: &[Rep]| {
        let mut s = Samples::default();
        for r in reps {
            s.push(if workload.deterministic() { r.run_s } else { r.cpu_s });
        }
        s.median()
    };
    let overhead = 1.0 - ratio(cost(&plain), cost(&traced));
    let mut metrics = Vec::new();
    for &(name, unit) in LAYER_METRICS {
        let mut s = Samples::default();
        for r in &traced {
            s.push(r.layers.as_ref().and_then(|l| l.0.get(name).copied()).unwrap_or(0.0));
        }
        let value = if name == "trace.overhead_share" { overhead } else { s.median() };
        metrics.push(Metric::value(name, unit, value));
    }
    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|r| r.attempted).sum();
    let mut failed: u64 = all.map(|r| r.failed).sum();
    if !transparent {
        failed = attempted;
    }
    print_result(failed == 0 && attempted > 0, attempted.max(1), failed, &metrics);
}
