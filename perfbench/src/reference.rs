//! Checks written from the paper's equations, apart from the program's own
//! revenue code: an expected-revenue evaluator (Eq. 1–3), a constraint
//! checker, and a per-(user, class) upper bound on any strategy's revenue.
//!
//! Nothing here calls into `revmax_core::revenue`; only the instance's
//! accessors (probabilities, prices, classes, β, capacities) are read.

use revmax_core::{ClassId, Instance, ItemId, Triple, UserId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Expected revenue `Σ p(i,t) · q_S(u,i,t)` of a set of triples.
///
/// For `z = (u, i, t)`, over the other triples of the same user and class:
/// the memory is `Σ_{τ < t} 1/(t − τ)` (Eq. 1), and the dynamic probability
/// is `q(z) · β_i^memory · Π (1 − q(z'))` over those shown earlier or at the
/// same time as a different item (Eq. 2).
pub fn expected_revenue(inst: &Instance, triples: &[Triple]) -> f64 {
    let mut groups: BTreeMap<(UserId, ClassId), Vec<Triple>> = BTreeMap::new();
    for &z in triples {
        groups
            .entry((z.user, inst.class_of(z.item)))
            .or_default()
            .push(z);
    }
    let mut total = 0.0;
    for group in groups.values() {
        for &z in group {
            let mut memory = 0.0;
            let mut competition = 1.0;
            for &other in group {
                if other == z {
                    continue;
                }
                let (t, tau) = (z.t.value(), other.t.value());
                if tau < t {
                    memory += 1.0 / f64::from(t - tau);
                    competition *= 1.0 - inst.prob_of(other);
                } else if tau == t && other.item != z.item {
                    competition *= 1.0 - inst.prob_of(other);
                }
            }
            let q = inst.prob_of(z) * inst.beta(z.item).powf(memory) * competition;
            total += inst.price(z.item, z.t) * q;
        }
    }
    total
}

/// Checks `plan` against the instance's constraints, counting `prefix` (the
/// displays already realized) towards them too: every triple is a candidate
/// pair inside the horizon, no display repeats, at most `k` displays share a
/// (user, t) slot, and each item reaches at most its capacity in distinct
/// users.
pub fn check_displays(inst: &Instance, prefix: &[Triple], plan: &[Triple]) -> Result<(), String> {
    let mut seen: HashSet<Triple> = HashSet::with_capacity(prefix.len() + plan.len());
    let mut per_slot: HashMap<(UserId, u32), u32> = HashMap::new();
    let mut audience: HashMap<ItemId, HashSet<UserId>> = HashMap::new();
    for &z in prefix.iter().chain(plan) {
        let t = z.t.value();
        if t == 0 || t > inst.horizon() || inst.candidate_for(z.user, z.item).is_none() {
            return Err(format!("{z} is not a candidate triple"));
        }
        if !seen.insert(z) {
            return Err(format!("{z} is displayed twice"));
        }
        let slot = per_slot.entry((z.user, t)).or_insert(0);
        *slot += 1;
        if *slot > inst.display_limit() {
            return Err(format!(
                "more than {} displays for {z}",
                inst.display_limit()
            ));
        }
        audience.entry(z.item).or_default().insert(z.user);
    }
    for (item, users) in &audience {
        if users.len() > inst.capacity(*item) as usize {
            return Err(format!(
                "item {item} reaches {} users, capacity {}",
                users.len(),
                inst.capacity(*item)
            ));
        }
    }
    Ok(())
}

/// An upper bound on the expected revenue of every strategy.
///
/// Within one (user, class) group the dynamic probabilities of any strategy
/// sum to at most 1 (the competition factors make them the probabilities of
/// disjoint events: the user adopts at most one item of a class), and each
/// is at most its primitive `q(u,i,t)`. The bound is therefore, per group,
/// the fractional knapsack that pours adoption mass `a ≤ q(u,i,t)` onto the
/// group's candidate triples in descending price order until the mass
/// reaches 1.
pub fn revenue_upper_bound(inst: &Instance) -> f64 {
    let mut total = 0.0;
    let mut offers: BTreeMap<ClassId, Vec<(f64, f64)>> = BTreeMap::new();
    for u in 0..inst.num_users() {
        offers.clear();
        for cand in inst.candidates_of_user(UserId(u)) {
            let item = inst.candidate_item(cand);
            let group = offers.entry(inst.candidate_class(cand)).or_default();
            for (q, p) in inst
                .candidate_probs(cand)
                .iter()
                .zip(inst.price_series(item))
            {
                if *q > 0.0 {
                    group.push((*p, *q));
                }
            }
        }
        for group in offers.values_mut() {
            group.sort_by(|a, b| b.0.total_cmp(&a.0));
            let mut mass = 1.0_f64;
            for &(price, q) in group.iter() {
                let a = q.min(mass);
                total += price * a;
                mass -= a;
                if mass <= 0.0 {
                    break;
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_algorithms::exact_optimum;
    use revmax_core::{revenue, InstanceBuilder, Strategy};

    /// SplitMix64: a seeded stream for the randomized instances.
    struct Stream(u64);

    impl Stream {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            crate::shopper::mix(self.0)
        }

        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: u32) -> u32 {
            (self.next_u64() % u64::from(n)) as u32
        }
    }

    /// A random tiny instance: ≤ 2 users, ≤ 3 items, T ≤ 3, at most 12
    /// candidate triples so the exact optimum stays enumerable.
    fn tiny_instance(rng: &mut Stream) -> Instance {
        let users = 1 + rng.below(2);
        let items = 2 + rng.below(2);
        let horizon = 1 + rng.below(3);
        let mut b = InstanceBuilder::new(users, items, horizon);
        b.display_limit(1 + rng.below(2));
        let classes = 1 + rng.below(2);
        for i in 0..items {
            let prices: Vec<f64> = (0..horizon).map(|_| 5.0 + 20.0 * rng.unit()).collect();
            b.item_class(i, rng.below(classes))
                .capacity(i, 1 + rng.below(2))
                .beta(i, 0.1 + 0.9 * rng.unit())
                .prices(i, &prices);
        }
        let mut triples = 0;
        for u in 0..users {
            for i in 0..items {
                if triples + horizon > 12 || rng.unit() < 0.25 {
                    continue;
                }
                let probs: Vec<f64> = (0..horizon).map(|_| 0.05 + 0.9 * rng.unit()).collect();
                b.candidate(u, i, &probs, 0.0);
                triples += horizon;
            }
        }
        b.build().expect("random tiny instance is valid")
    }

    fn all_triples(inst: &Instance) -> Vec<Triple> {
        let mut out = Vec::new();
        for cand in inst.candidates() {
            for t in 1..=inst.horizon() {
                out.push(Triple::new(
                    inst.candidate_user(cand).0,
                    inst.candidate_item(cand).0,
                    t,
                ));
            }
        }
        out
    }

    #[test]
    fn evaluator_matches_the_library_on_random_strategies() {
        let mut rng = Stream(7);
        for _ in 0..300 {
            let inst = tiny_instance(&mut rng);
            let mut strategy = Strategy::new();
            for z in all_triples(&inst) {
                if rng.unit() < 0.5 {
                    strategy.insert(z);
                }
            }
            let ours = expected_revenue(&inst, strategy.as_slice());
            let theirs = revenue(&inst, &strategy);
            assert!(
                crate::stats::close(ours, theirs, 1e-12),
                "evaluator {ours} vs library {theirs}"
            );
        }
    }

    #[test]
    fn bound_dominates_the_exact_optimum() {
        let mut rng = Stream(11);
        for _ in 0..200 {
            let inst = tiny_instance(&mut rng);
            let best = exact_optimum(&inst, 12);
            let bound = revenue_upper_bound(&inst);
            assert!(
                best.revenue <= bound * (1.0 + 1e-12),
                "optimum {} above bound {bound}",
                best.revenue
            );
            assert!(check_displays(&inst, &[], best.strategy.as_slice()).is_ok());
            assert!(crate::stats::close(
                expected_revenue(&inst, best.strategy.as_slice()),
                best.revenue,
                1e-12
            ));
        }
    }

    #[test]
    fn checker_rejects_each_violation() {
        let mut b = InstanceBuilder::new(2, 2, 2);
        b.display_limit(1)
            .capacity(0, 1)
            .constant_price(0, 10.0)
            .constant_price(1, 10.0)
            .candidate(0, 0, &[0.5, 0.5], 0.0)
            .candidate(1, 0, &[0.5, 0.5], 0.0)
            .candidate(0, 1, &[0.5, 0.5], 0.0);
        let inst = b.build().expect("valid");
        let z = |u, i, t| Triple::new(u, i, t);
        assert!(check_displays(&inst, &[], &[z(0, 0, 1), z(0, 1, 2)]).is_ok());
        assert!(
            check_displays(&inst, &[], &[z(1, 1, 1)]).is_err(),
            "not a candidate"
        );
        assert!(
            check_displays(&inst, &[], &[z(0, 0, 3)]).is_err(),
            "past the horizon"
        );
        assert!(
            check_displays(&inst, &[z(0, 0, 1)], &[z(0, 0, 1)]).is_err(),
            "duplicate"
        );
        assert!(
            check_displays(&inst, &[], &[z(0, 0, 1), z(0, 1, 1)]).is_err(),
            "slot"
        );
        assert!(
            check_displays(&inst, &[z(0, 0, 1)], &[z(1, 0, 2)]).is_err(),
            "capacity"
        );
    }
}
