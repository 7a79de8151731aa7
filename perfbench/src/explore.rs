//! The explorer job: bounded exhaustive schedule exploration of FloodMin
//! on a favourable scenario at f = 1, k = 1.

use kset_core::algorithms::floodmin::FloodMin;
use kset_core::scenario::RoundAdapter;
use kset_sim::explore::{explore_scenario, Branching, ExploreConfig};
use kset_sim::sweep::cell_seed;
use kset_sim::Scenario;

use crate::sys::current_rss_bytes;
use crate::trace::Tracer;
use crate::Tally;

/// Traced runs read the resident set size every this many check calls;
/// the highest reading minus the one before the call is the exploration's
/// memory.
const RSS_SAMPLE_EVERY: u64 = 1024;

/// The counts one exploration produced; they must repeat exactly for the
/// same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub states: u64,
    pub terminals: u64,
    pub checks: u64,
}

/// Explores `n` processes proposing a seed-derived permutation of
/// `0..n`, expanding at most `budget` configurations. The check closure
/// is the validity property (every decision is a proposal), which must
/// never fire.
pub fn run(n: usize, budget: usize, perm_seed: u64, t: &mut Tracer, tally: &mut Tally) -> Counts {
    let inputs = permutation(n, perm_seed);
    let scenario = Scenario::favourable(n, 1, 1).with_inputs(inputs.clone());
    let config = ExploreConfig {
        max_depth: 24,
        max_states: budget,
        branching: Branching::NoneOrAll,
    };
    let mut checks = 0u64;
    let traced = t.on();
    let rss_before = if traced { current_rss_bytes() } else { 0 };
    let mut rss_peak = rss_before;
    let report = t
        .span("explore.call", |_| {
            explore_scenario::<RoundAdapter<FloodMin>>(&scenario, &config, |sim| {
                checks += 1;
                if traced && checks.is_multiple_of(RSS_SAMPLE_EVERY) {
                    rss_peak = rss_peak.max(current_rss_bytes());
                }
                match sim
                    .decisions()
                    .iter()
                    .flatten()
                    .find(|v| !inputs.contains(v))
                {
                    Some(v) => Err(format!("decided {v}, which nobody proposed")),
                    None => Ok(()),
                }
            })
        })
        .expect("favourable scenarios are valid");
    tally.attempt(report.violation.is_none());
    let states = report.states_expanded as f64;
    t.sample(
        "explore.rss_bytes_per_state",
        (rss_peak - rss_before) as f64 / states,
    );
    Counts {
        states: report.states_expanded as u64,
        terminals: report.terminals as u64,
        checks,
    }
}

/// A Fisher–Yates permutation of `0..n` driven by `seed`.
fn permutation(n: usize, seed: u64) -> Vec<u64> {
    let mut values: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        let j = (cell_seed(seed, i) % (i as u64 + 1)) as usize;
        values.swap(i, j);
    }
    values
}
