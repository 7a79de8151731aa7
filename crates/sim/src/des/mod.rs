//! Discrete-event virtual-time substrate: runs defined in **time**.
//!
//! The step simulator ([`SimEngine`](crate::SimEngine)) and `kset-core`'s
//! lock-step round executor both measure progress in uniform scheduler
//! *units* — a fine fit for the paper's adversary arguments, but unable to
//! express schedules defined in time: per-link latency draws, partial
//! synchrony with an explicit global stabilization time (GST), or
//! delay-bounded adversaries whose Δ is a duration rather than a unit
//! count. This module adds that substrate.
//!
//! # Architecture
//!
//! * A **virtual clock** ([`VirtualTime`]) advanced by a deterministic
//!   min-heap of `(VirtualTime, seq, component)` wake-ups. The monotonic
//!   `seq` tie-break makes heap order *total*: two events at the same
//!   instant pop in insertion order, so a run is a pure function of its
//!   seeds regardless of heap internals.
//! * **Components** (crate-internal): the per-process clocks, the link
//!   fabric carrying in-flight messages, the timed crash schedule and the
//!   failure-detector cadence all answer `next_tick`/`tick`. A tick emits
//!   actions; the engine applies them, which is what keeps component state
//!   and engine state cleanly separated.
//! * **Latency models** ([`Latency`]): each message's delivery time is
//!   `max(send, gst) + draw`, where `draw` is a seeded, per-link,
//!   per-message SplitMix64 draw from `lo..=hi` — real delivery times, not
//!   unit counts. Before the GST the adversary parks every message until
//!   stabilization; `gst = 0` is the synchronous-bounded model from the
//!   start.
//!
//! # Two kinds of run
//!
//! [`DesEngine`] implements the [`Engine`](crate::Engine) trait for both:
//!
//! * **Timed** ([`DesEngine::timed`]) — arrival-driven execution: a
//!   process wakes exactly when messages arrive (plus the optional
//!   detector cadence), consuming them as a
//!   [`Delivery::Ids`](crate::sched::Delivery::Ids) step. Idle
//!   stretches cost nothing —
//!   the clock jumps to the next arrival — which is the sparse-schedule
//!   win the `e7_des` bench group measures.
//! * **Unit** — what [`Scenario::to_des`](crate::Scenario::to_des)
//!   builds for every unit schedule family: the
//!   [`SimEngine`](crate::SimEngine) that
//!   [`Scenario::to_sim`](crate::Scenario::to_sim) compiles, behind the
//!   same type. A unit run *is* the step substrate, driven by its one
//!   loop; [`DesEngine::now`] reports the unit count.
//!
//! The Observer event stream (send/deliver/fd-sample/step/crash/decide/
//! halt) flows unchanged in both: every process step goes through the
//! same `Simulation::step_observed` seven-phase pipeline as the step
//! substrate. Event times remain the simulation's step counter
//! ([`Time`](crate::Time)); the virtual clock is scheduling metadata, not
//! a new event vocabulary. One nuance: a *timed* crash is an adversary
//! strike between steps, reported with `after_step == true` at the
//! striking moment's step time.

mod component;
mod engine;
mod heap;
mod latency;

pub use engine::DesEngine;
pub use latency::Latency;

/// A point on the discrete-event virtual clock.
///
/// Distinct from [`Time`](crate::Time) (the simulation's step counter):
/// virtual time measures *when* things happen on the modelled network,
/// while step time counts atomic process steps. Observer events carry step
/// time in both kinds of run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(u64);

impl VirtualTime {
    /// The clock origin; nothing is scheduled before it.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Wraps a raw tick count.
    pub const fn new(raw: u64) -> Self {
        VirtualTime(raw)
    }

    /// The raw tick count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The immediately following instant.
    pub const fn next(self) -> VirtualTime {
        VirtualTime(self.0.saturating_add(1))
    }

    /// This instant delayed by `delay` ticks (saturating).
    pub const fn plus(self, delay: u64) -> VirtualTime {
        VirtualTime(self.0.saturating_add(delay))
    }
}

impl std::fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifies one component in a timed [`DesEngine`]'s registry — the
/// third element of every heap entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ComponentId(usize);

impl ComponentId {
    /// Wraps a registry index.
    const fn new(index: usize) -> Self {
        ComponentId(index)
    }

    /// The registry index.
    const fn index(self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_time_orders_and_advances() {
        assert!(VirtualTime::ZERO < VirtualTime::new(1));
        assert_eq!(VirtualTime::new(3).next(), VirtualTime::new(4));
        assert_eq!(VirtualTime::new(3).plus(4), VirtualTime::new(7));
        assert_eq!(
            VirtualTime::new(u64::MAX).next(),
            VirtualTime::new(u64::MAX)
        );
        assert_eq!(VirtualTime::new(5).to_string(), "t5");
    }
}
