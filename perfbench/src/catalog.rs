//! `catalog-plan`: G-Greedy and SL-Greedy plans of one 4,600-user
//! Amazon-shaped catalog, alternating, each checked against the reference
//! evaluator, the constraint checker and the revenue upper bound.

use crate::reference::{check_displays, expected_revenue, revenue_upper_bound};
use crate::shopper::Shopper;
use crate::stats::{close, median};
use crate::trace::Tracer;
use crate::{dataset, gg_config, layers, repeat_for, slg_config, Samples, Workload};
use revmax_algorithms::{plan, GreedyOutcome};
use revmax_core::Instance;
use std::time::Instant;

/// The catalog: `amazon_like().scaled(0.2)` with the preset's dataset seed.
const SCALE: f64 = 0.2;
const STRUCTURE: u64 = 20140814;

pub struct Catalog {
    seed: u64,
    inst: Instance,
    bound: f64,
    /// The first revenue of each algorithm: later plans must repeat it.
    revenues: [Option<f64>; 2],
}

impl Catalog {
    /// The workload and the seconds its set-up (the catalog) took.
    pub fn new(seed: u64) -> (Self, f64) {
        let started = Instant::now();
        let inst = dataset(SCALE, STRUCTURE, seed);
        let setup_s = started.elapsed().as_secs_f64();
        let catalog = Catalog {
            seed,
            bound: f64::NAN,
            inst,
            revenues: [None, None],
        };
        (catalog, setup_s)
    }

    fn check(&mut self, which: usize, outcome: &GreedyOutcome, problems: &mut Vec<String>) {
        let name = ["G-Greedy", "SL-Greedy"][which];
        let triples = outcome.strategy.as_slice();
        if let Err(e) = check_displays(&self.inst, &[], triples) {
            problems.push(format!("{name} plan: {e}"));
        }
        let reference = expected_revenue(&self.inst, triples);
        if !close(reference, outcome.revenue, 1e-9) {
            problems.push(format!(
                "{name} revenue {} differs from the reference {reference}",
                outcome.revenue
            ));
        }
        if !(outcome.revenue > 0.0 && outcome.revenue <= self.bound) {
            problems.push(format!(
                "{name} revenue {} outside (0, bound {}]",
                outcome.revenue, self.bound
            ));
        }
        match self.revenues[which] {
            None => self.revenues[which] = Some(outcome.revenue),
            Some(first) if first.to_bits() != outcome.revenue.to_bits() => {
                problems.push(format!(
                    "{name} revenue changed from {first} to {}",
                    outcome.revenue
                ));
            }
            Some(_) => {}
        }
    }
}

impl Workload for Catalog {
    fn prepare(&mut self, _problems: &mut Vec<String>) {
        self.bound = revenue_upper_bound(&self.inst);
    }

    fn run(&mut self, seconds: f64, out: &mut Samples) {
        let configs = [gg_config(), slg_config()];
        repeat_for(seconds, || {
            for (which, config) in configs.iter().enumerate() {
                let started = Instant::now();
                let outcome = plan(&self.inst, config);
                let ms = started.elapsed().as_secs_f64() * 1e3;
                [&mut out.main, &mut out.second][which].push(ms);
                out.ops += 1;
                if which == 0 {
                    out.earned += outcome.revenue;
                    out.bound += self.bound;
                }
                self.check(which, &outcome, &mut out.problems);
            }
        });
    }

    /// Fewer than forty plans fit in a run, which is no tail: the median
    /// stands in for it.
    fn tail_ms(&self, samples: &Samples) -> f64 {
        median(&samples.main)
    }

    fn layers(
        &mut self,
        tracer: &mut Tracer,
        seconds: f64,
        problems: &mut Vec<String>,
    ) -> layers::PassReport {
        // This workload reaches neither sessions, wire nor HTTP: those
        // layers are timed on a 460-user instance from the same seed.
        let companion = [dataset(0.02, STRUCTURE, self.seed)];
        let shoppers = [Shopper::of(self.seed, 0, 0)];
        layers::pass(
            tracer,
            (&self.inst, self.bound),
            &companion,
            &shoppers,
            seconds,
            problems,
        )
    }
}
