//! The seeded shopper that realizes each day's displays, and the audit that
//! checks a session's suffixes against what the shopper has done so far.

use crate::reference::check_displays;
use crate::stats::close;
use revmax_core::{AdoptionEvent, AdoptionOutcome, ClassId, Instance, Triple, UserId};
use std::collections::HashSet;

/// The SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A shopper stream: adopts a displayed triple when its draw falls below the
/// triple's primitive probability `q(u,i,t)`, at most once per (user,
/// class). The draw is a hash of the stream and the triple, so the same
/// stream reacts identically to the same displays wherever it runs.
#[derive(Debug, Clone, Copy)]
pub struct Shopper {
    stream: u64,
}

impl Shopper {
    pub fn new(stream: u64) -> Self {
        Shopper { stream }
    }

    /// The stream `s` of session instance `k` under `seed`.
    pub fn of(seed: u64, k: usize, s: u64) -> Self {
        Shopper::new(mix(seed ^ 0x5eed) ^ ((k as u64) << 8 | s))
    }

    fn draw(&self, z: Triple) -> f64 {
        let key = mix(self.stream ^ mix(u64::from(z.user.0) << 32 | u64::from(z.item.0)))
            ^ u64::from(z.t.value());
        (mix(key) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The events for one day's displays (sorted), updating `adopted`, the
    /// (user, class) pairs already adopted.
    pub fn react(
        &self,
        inst: &Instance,
        displays: &[Triple],
        adopted: &mut HashSet<(UserId, ClassId)>,
    ) -> Vec<AdoptionEvent> {
        displays
            .iter()
            .map(|&z| {
                let group = (z.user, inst.class_of(z.item));
                let outcome = if self.draw(z) < inst.prob_of(z) && adopted.insert(group) {
                    AdoptionOutcome::Adopted
                } else {
                    AdoptionOutcome::Rejected
                };
                AdoptionEvent {
                    user: z.user,
                    item: z.item,
                    t: z.t,
                    outcome,
                }
            })
            .collect()
    }
}

/// The displays a suffix plans for day `day`, sorted.
pub fn displays_on(suffix: &[Triple], day: u32) -> Vec<Triple> {
    let mut out: Vec<Triple> = suffix
        .iter()
        .copied()
        .filter(|z| z.t.value() == day)
        .collect();
    out.sort();
    out
}

/// One shopper's walk through a session, with the benchmark's own record of
/// what has been realized: checks every suffix the session plans and
/// recomputes the realized revenue.
pub struct Walk<'a> {
    inst: &'a Instance,
    shopper: Shopper,
    prefix: Vec<Triple>,
    adopted: HashSet<(UserId, ClassId)>,
    realized: f64,
}

impl<'a> Walk<'a> {
    pub fn new(inst: &'a Instance, shopper: Shopper) -> Self {
        Walk {
            inst,
            shopper,
            prefix: Vec::new(),
            adopted: HashSet::new(),
            realized: 0.0,
        }
    }

    /// The shopper's events for day `day` of `suffix`, recorded as realized.
    pub fn day_events(&mut self, suffix: &[Triple], day: u32) -> Vec<AdoptionEvent> {
        let displays = displays_on(suffix, day);
        let events = self.shopper.react(self.inst, &displays, &mut self.adopted);
        self.prefix.extend_from_slice(&displays);
        let day_revenue: f64 = events
            .iter()
            .filter(|e| e.is_adoption())
            .map(|e| self.inst.price(e.item, e.t))
            .sum();
        self.realized += day_revenue;
        events
    }

    /// Checks a suffix planned after frontier `now`: it lies after `now`,
    /// respects display and capacity limits together with the realized
    /// prefix, and shows no class its user has already adopted; and the
    /// session's realized revenue matches the benchmark's.
    pub fn check(&self, now: u32, suffix: &[Triple], realized: f64) -> Result<(), String> {
        if let Some(z) = suffix.iter().find(|z| z.t.value() <= now) {
            return Err(format!("suffix triple {z} lies at or before now = {now}"));
        }
        if let Some(z) = suffix
            .iter()
            .find(|z| self.adopted.contains(&(z.user, self.inst.class_of(z.item))))
        {
            return Err(format!("suffix shows {z} from a class its user adopted"));
        }
        check_displays(self.inst, &self.prefix, suffix)?;
        if !close(realized, self.realized, 1e-9) {
            return Err(format!(
                "realized revenue {realized} differs from the recomputed {}",
                self.realized
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::InstanceBuilder;

    #[test]
    fn shopper_adopts_at_most_once_per_class_and_repeats_itself() {
        let mut b = InstanceBuilder::new(1, 2, 1);
        b.display_limit(2)
            .item_class(0, 0)
            .item_class(1, 0)
            .constant_price(0, 1.0)
            .constant_price(1, 1.0)
            .candidate(0, 0, &[1.0], 0.0)
            .candidate(0, 1, &[1.0], 0.0);
        let inst = b.build().expect("valid");
        let displays = [Triple::new(0, 0, 1), Triple::new(0, 1, 1)];
        let mut adopted = HashSet::new();
        let events = Shopper::new(3).react(&inst, &displays, &mut adopted);
        let adoptions = events.iter().filter(|e| e.is_adoption()).count();
        assert_eq!(adoptions, 1, "one class, certain adoption: exactly one");
        let again = Shopper::new(3).react(&inst, &displays, &mut HashSet::new());
        assert_eq!(events, again);
    }
}
