//! The differential job: every scenario is checked three ways — the
//! lock-step family on three substrates, the same under a seeded
//! asynchronous family, and the crash-stop variant on the timed
//! discrete-event substrate against the round executor.

use kset_core::algorithms::floodmin::FloodMin;
use kset_core::scenario::{differential, to_lockstep, RoundAdapter};
use kset_core::Val;
use kset_sim::des::Latency;
use kset_sim::observe::NoObserver;
use kset_sim::sweep::{cell_seed, scenario_grid};
use kset_sim::{Engine, ProcessSet, Scenario, ScheduleFamily};

use crate::trace::Tracer;
use crate::Tally;

/// The scenario grid of one differential seed over the system sizes `ns`.
pub fn scenarios(ns: &[usize], grid_seed: u64) -> Vec<Scenario> {
    scenario_grid(ns, &[1, 2, 3], &[1, 2, 3], grid_seed)
        .expect("benchmark axes are within capacity")
}

/// Checks every scenario three ways. Returns how many asynchronous-family
/// checks diverged, which must repeat exactly for the same inputs.
pub fn run(scenarios: &[Scenario], grid_seed: u64, t: &mut Tracer, tally: &mut Tally) -> u64 {
    let mut async_divergent = 0;
    for (i, sc) in scenarios.iter().enumerate() {
        let seed = cell_seed(grid_seed, i);
        let agrees = t.span("differential.check", |t| check(sc, t));
        tally.attempt(agrees);

        let family = ScheduleFamily::Async {
            seed,
            deliver_percent: 20,
            fairness_window: 4,
        };
        let async_sc = sc.clone().with_schedule(family);
        if !t.span("differential.async_check", |t| check(&async_sc, t)) {
            async_divergent += 1;
        }
        tally.attempt(true);

        let timed_ok = t.span("differential.timed_leg", |t| timed_leg(sc, seed, t));
        tally.attempt(timed_ok);
    }
    async_divergent
}

/// `differential::check::<FloodMin>` and whether the substrates agree.
/// Traced, the benchmark makes the check's public calls itself, so each
/// compile and drive gets its own span; the work is the same.
fn check(sc: &Scenario, t: &mut Tracer) -> bool {
    if !t.on() {
        return differential::check::<FloodMin>(sc)
            .expect("grid scenarios are valid")
            .agrees();
    }
    let correct = sc.faulty().complement(sc.n);
    let mut sim = t
        .span("scenario.to_sim", |_| sc.to_sim::<RoundAdapter<FloodMin>>())
        .expect("grid scenarios compile");
    t.span("engine.sim_drive", |_| {
        sim.drive_observed(sc.max_units, &mut NoObserver)
    });
    t.sample("engine.sim_steps", sim.units() as f64);

    let mut lock = t
        .span("scenario.to_lockstep", |_| to_lockstep::<FloodMin>(sc))
        .expect("grid scenarios compile");
    t.span("sync.diff_lockstep_drive", |_| {
        lock.drive_observed(sc.rounds as u64, &mut NoObserver)
    });

    let mut des = t
        .span("scenario.to_des", |_| sc.to_des::<RoundAdapter<FloodMin>>())
        .expect("grid scenarios compile");
    t.span("des.embedded_drive", |_| {
        des.drive_observed(sc.max_units, &mut NoObserver)
    });
    t.sample("des.embedded_units", des.units() as f64);

    same_run(&sim, &lock, correct, sc.k) && same_run(&des, &lock, correct, sc.k)
}

/// The four comparisons `differential::check` makes between a substrate
/// and the round-level reference.
fn same_run(
    a: &impl Engine<Output = Val>,
    reference: &impl Engine<Output = Val>,
    correct: ProcessSet,
    k: usize,
) -> bool {
    let (da, dr) = (a.decisions(), reference.decisions());
    let terminated = |d: &[Option<Val>]| correct.iter().all(|p| d[p.index()].is_some());
    let (sa, sr) = (a.distinct_decisions(), reference.distinct_decisions());
    sa == sr
        && correct.iter().all(|p| da[p.index()] == dr[p.index()])
        && terminated(&da) == terminated(&dr)
        && (sa.len() <= k) == (sr.len() <= k)
}

/// The crash-stop variant of `sc` (every crash reaches nobody) on the
/// timed substrate with fixed latency `d` and `gst = 0`, which walks the
/// round cadence: round `r` happens at virtual time `1 + (r - 1)·d`. Its
/// decisions must equal the round executor's.
fn timed_leg(sc: &Scenario, seed: u64, t: &mut Tracer) -> bool {
    let d = 1 + seed % 8;
    let mut stop = sc.clone();
    for crash in &mut stop.crashes {
        crash.receivers = ProcessSet::new();
    }
    let mut lock = t
        .span("scenario.timed_to_lockstep", |_| {
            to_lockstep::<FloodMin>(&stop)
        })
        .expect("crash-stop variant compiles");
    t.span("sync.timed_lockstep_drive", |_| {
        lock.drive(stop.rounds as u64)
    });

    let mut timed = stop.with_schedule(ScheduleFamily::Timed {
        latency: Latency::fixed(d),
        gst: 0,
        seed,
    });
    for crash in &mut timed.crashes {
        crash.round = 1 + (crash.round - 1) * d as usize;
    }
    let mut des = t
        .span("scenario.timed_to_des", |_| {
            timed.to_des::<RoundAdapter<FloodMin>>()
        })
        .expect("timed variant compiles");
    t.span("des.timed_drive", |_| des.drive(timed.max_units));
    t.sample("des.timed_units", des.units() as f64);
    des.done() && des.decisions() == lock.decisions()
}
