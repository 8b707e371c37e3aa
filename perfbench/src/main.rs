//! The repository's benchmark: runs one named workload against the REVMAX
//! planner, its replan sessions or its HTTP front end, checks every output
//! against computations made apart from the program, and prints one JSON
//! line of metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <catalog-plan|http-storefront> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` is the traced
//! run: it times each layer's public calls on the workload's inputs, each
//! unit of that pass once untraced and once traced, writes the spans to
//! `perfbench/out/`, and prints the per-layer metrics with the tracing
//! overhead.

mod catalog;
mod layers;
mod reference;
mod shopper;
mod stats;
mod storefront;
mod trace;

use revmax_algorithms::{PlanAlgorithm, PlannerConfig};
use revmax_core::{Instance, InstanceBuilder, ItemId};
use revmax_data::DatasetConfig;
use stats::{median, quantile};
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// How many times each run repeats its set-up; `setup_s` is the median.
const SETUPS: usize = 5;

/// The samples one run collects.
#[derive(Default)]
pub struct Samples {
    /// Latencies (ms) of the workload's main operation.
    pub main: Vec<f64>,
    /// Latencies (ms) of its second operation.
    pub second: Vec<f64>,
    /// Operations completed.
    pub ops: u64,
    /// Operations that returned an error or an unexpected status.
    pub failed: u64,
    /// Revenue earned by the plans or shoppers, and the upper bound on it.
    pub earned: f64,
    pub bound: f64,
    /// Outputs that failed a check.
    pub problems: Vec<String>,
}

impl Samples {
    fn attempted(&self) -> u64 {
        self.ops + self.failed
    }

    fn merge(&mut self, other: Samples) {
        self.main.extend(other.main);
        self.second.extend(other.second);
        self.ops += other.ops;
        self.failed += other.failed;
        self.earned += other.earned;
        self.bound += other.bound;
        self.problems.extend(other.problems);
    }
}

/// One workload: whole rounds of the same operations, and a layer pass for
/// the traced run.
pub trait Workload {
    /// Computes what the checks compare against (bounds, twins); called
    /// once, after the timed set-ups.
    fn prepare(&mut self, problems: &mut Vec<String>);
    /// Runs whole rounds, at least one, until `seconds` have gone by,
    /// adding their samples to `out`.
    fn run(&mut self, seconds: f64, out: &mut Samples);
    /// The tail latency this workload reports (see the README).
    fn tail_ms(&self, samples: &Samples) -> f64;
    /// Times every layer's public calls on this workload's inputs for about
    /// `seconds`, each unit untraced and then traced.
    fn layers(
        &mut self,
        tracer: &mut Tracer,
        seconds: f64,
        problems: &mut Vec<String>,
    ) -> layers::PassReport;
}

/// Calls `round` once, then again until `seconds` have gone by since the
/// first call began.
pub fn repeat_for(seconds: f64, mut round: impl FnMut()) {
    let started = Instant::now();
    loop {
        round();
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// The planner configuration every workload uses: G-Greedy with the
/// library defaults, built here so no `REVMAX_*` variable can change it.
pub fn gg_config() -> PlannerConfig {
    PlannerConfig::default()
}

/// SL-Greedy with the library defaults.
pub fn slg_config() -> PlannerConfig {
    gg_config().with_algorithm(PlanAlgorithm::SequentialLocalGreedy)
}

/// The session configuration: warm-started replans, as a storefront runs.
pub fn session_config() -> PlannerConfig {
    PlannerConfig::default().with_warm_start(true)
}

/// The Amazon-shaped dataset at `scale` generated with dataset seed
/// `structure`, its users, items and classes relabeled by `seed`.
///
/// The structure is fixed per workload because generated instances at these
/// sizes differ by ±10% in planning work and revenue from one dataset seed
/// to the next, which would swamp every bound; the relabeling still gives
/// each `--seed` an input of its own.
pub fn dataset(scale: f64, structure: u64, seed: u64) -> Instance {
    let mut config = DatasetConfig::amazon_like().scaled(scale);
    config.seed = structure;
    relabel(&revmax_data::generate(&config).instance, seed)
}

/// A seeded permutation of `0..n`.
fn permutation(n: u32, seed: u64) -> Vec<u32> {
    let mut out: Vec<u32> = (0..n).collect();
    let mut state = seed;
    for i in (1..out.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out.swap(i, (shopper::mix(state) % (i as u64 + 1)) as usize);
    }
    out
}

/// `inst` with users, items and classes renumbered by seeded permutations.
fn relabel(inst: &Instance, seed: u64) -> Instance {
    let users = permutation(inst.num_users(), shopper::mix(seed ^ 1));
    let items = permutation(inst.num_items(), shopper::mix(seed ^ 2));
    let classes = permutation(inst.num_classes(), shopper::mix(seed ^ 3));
    let mut b = InstanceBuilder::new(inst.num_users(), inst.num_items(), inst.horizon());
    b.display_limit(inst.display_limit());
    for i in 0..inst.num_items() {
        let item = ItemId(i);
        b.item_class(items[i as usize], classes[inst.class_of(item).index()])
            .capacity(items[i as usize], inst.capacity(item))
            .beta(items[i as usize], inst.beta(item))
            .prices(items[i as usize], inst.price_series(item));
    }
    for cand in inst.candidates() {
        b.candidate(
            users[inst.candidate_user(cand).index()],
            items[inst.candidate_item(cand).index()],
            inst.candidate_probs(cand),
            inst.candidate_rating(cand),
        );
    }
    b.build().expect("a relabeled valid instance is valid")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Sets the workload up `SETUPS` times (the last copy is kept) and returns
/// it with the median time of the program's part of the set-up.
fn set_up(name: &str, seed: u64) -> Option<(Box<dyn Workload>, f64)> {
    let mut times = Vec::new();
    let mut kept: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (w, secs): (Box<dyn Workload>, f64) = match name {
            "catalog-plan" => boxed(catalog::Catalog::new(seed)),
            "http-storefront" => boxed(storefront::Storefront::new(seed)),
            _ => return None,
        };
        times.push(secs);
        kept = Some(w);
    }
    Some((kept.expect("at least one set-up"), median(&times)))
}

fn boxed<W: Workload + 'static>((w, secs): (W, f64)) -> (Box<dyn Workload>, f64) {
    (Box::new(w), secs)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    println!("{out}");
}

fn report_problems(problems: &[String]) {
    for p in problems.iter().take(20) {
        eprintln!("check failed: {p}");
    }
    if problems.len() > 20 {
        eprintln!("... and {} more", problems.len() - 20);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some((mut workload, setup_s)) = set_up(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let mut warm = Samples::default();
    workload.prepare(&mut warm.problems);
    // One untimed round first: lazy set-up and allocator growth are paid
    // once per process, not once per operation.
    workload.run(0.0, &mut warm);

    if !args.trace {
        let mut s = Samples::default();
        let started = Instant::now();
        workload.run(args.seconds, &mut s);
        let wall_s = started.elapsed().as_secs_f64();
        s.problems.extend(warm.problems);
        report_problems(&s.problems);
        let metrics = [
            metric("setup_s", setup_s, "s"),
            metric("main_ms", median(&s.main), "ms"),
            metric("tail_ms", workload.tail_ms(&s), "ms"),
            metric("second_ms", median(&s.second), "ms"),
            metric("ops_per_s", s.ops as f64 / wall_s, "1/s"),
            metric("revenue_share", 100.0 * s.earned / s.bound, "%"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        print_result(s.problems.is_empty(), s.attempted(), s.failed, &metrics);
        return;
    }

    let mut tracer = Tracer::new();
    let mut problems = warm.problems;
    let pass = workload.layers(&mut tracer, args.seconds, &mut problems);
    report_problems(&problems);

    let out_dir = std::path::Path::new("perfbench/out");
    let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    } else {
        eprintln!("spans written to {}", path.display());
    }
    let mut metrics = layers::metrics(&tracer);
    metrics.push(metric(
        "trace.overhead_ratio",
        median(&pass.ratios),
        "ratio",
    ));
    print_result(
        problems.is_empty(),
        2 * pass.ratios.len() as u64,
        2 * pass.failed,
        &metrics,
    );
}

/// The p95 latency of `samples` (nearest rank).
pub fn p95(samples: &[f64]) -> f64 {
    quantile(samples, 0.95)
}
