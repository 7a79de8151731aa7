//! Differential conformance between the independent substrates: one
//! scenario description compiled to the step-level simulator and to the
//! round-level lock-step executor must produce equivalent runs under the
//! synchronous schedule family — across the full Theorem 8 border grid,
//! under parallel and sequential sweeps alike — and must *flag* (not panic
//! on) divergence under asynchronous families. The discrete-event engine
//! runs unit families as the step engine itself, which the suite pins
//! directly; its natively timed family is compared against the round
//! executor: fixed latency with `gst = 0` walks the exact round cadence.

use kset::core::algorithms::floodmin::FloodMin;
use kset::core::scenario::differential::{self, DiffReport};
use kset::core::scenario::{to_lockstep, RoundAdapter};
use kset::core::Val;
use kset::impossibility::theorem8_border_cells as border_cells;
use kset::sim::des::Latency;
use kset::sim::explore::{explore_scenario, Branching, ExploreConfig};
use kset::sim::observe::EventCounter;
use kset::sim::scenario::{Scenario, ScheduleFamily};
use kset::sim::sweep::{scenario_grid, sweep, sweep_seq};
use kset::sim::{Engine, ProcessId, ProcessSet, ScenarioCrash};

/// Drives the `to_des` and `to_sim` compilations of a unit-family
/// `scenario` side by side, an event counter on each. The discrete-event
/// engine forwards such a run to the step engine, so the drive status,
/// decisions, unit count and every event total must be equal.
fn assert_des_is_the_step_engine(scenario: &Scenario, tag: &str) {
    let mut sim = scenario
        .to_sim::<RoundAdapter<FloodMin>>()
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
    let mut des = scenario
        .to_des::<RoundAdapter<FloodMin>>()
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
    let mut sim_counter: EventCounter<Val> = EventCounter::new();
    let mut des_counter: EventCounter<Val> = EventCounter::new();
    let sim_status = sim.drive_observed(scenario.max_units, &mut sim_counter);
    let des_status = des.drive_observed(scenario.max_units, &mut des_counter);
    assert_eq!(des_status, sim_status, "{tag}: drive status");
    assert_eq!(des.decisions(), sim.decisions(), "{tag}: decisions");
    assert_eq!(des.units(), sim.units(), "{tag}: units");
    assert_eq!(
        des_counter.counts(),
        sim_counter.counts(),
        "{tag}: event totals"
    );
    assert_eq!(
        des_counter.decisions_by_process(),
        sim_counter.decisions_by_process(),
        "{tag}: decided values per process"
    );
}

#[test]
fn theorem8_border_grid_substrates_agree() {
    // Favourable side of the border: every scenario's lock-step compilation
    // and step-level compilation must agree on decisions, distinct counts
    // and termination — the two-substrate architecture as a tested
    // equivalence, not a trait coincidence.
    for cell in border_cells(42) {
        let scenario = Scenario::from_cell(&cell);
        assert!(scenario.is_lock_step());
        let report = differential::check::<FloodMin>(&scenario)
            .unwrap_or_else(|e| panic!("cell {}: {e}", cell.index));
        assert!(
            report.agrees(),
            "n={} f={} k={} seed={:#x}: {:?}",
            cell.n,
            cell.f,
            cell.k,
            cell.seed,
            report.divergences
        );
        assert!(report.sim.terminated && report.lockstep.terminated);
        assert_eq!(report.sim.distinct, report.lockstep.distinct);
        assert!(
            report.lockstep.k_agreement(cell.k),
            "FloodMin must reach k-agreement on the favourable side"
        );
        assert_eq!(report.lockstep.units, scenario.rounds as u64);
        assert_des_is_the_step_engine(&scenario, &format!("cell {}", cell.index));
    }
}

#[test]
fn differential_parallel_sweep_equals_sequential() {
    // The differential check is a pure function of the scenario, so the
    // parallel sweep over a scenario grid must reproduce the sequential
    // pass bit for bit — reports included.
    let scenarios = scenario_grid(&[4, 6, 8], &[1, 2], &[1, 2], 7).expect("within capacity");
    assert!(!scenarios.is_empty());
    let worker = |_: usize, sc: &Scenario| -> DiffReport {
        differential::check::<FloodMin>(sc).expect("grid scenarios are valid")
    };
    let parallel = sweep(&scenarios, worker);
    let sequential = sweep_seq(&scenarios, worker);
    assert_eq!(parallel, sequential);
    for (sc, report) in scenarios.iter().zip(&parallel) {
        assert!(
            report.agrees(),
            "n={} f={} k={}: {:?}",
            sc.n,
            sc.f,
            sc.k,
            report.divergences
        );
    }
}

#[test]
fn observer_counts_agree_across_substrates_on_the_border_grid() {
    // The observation acceptance claim: one Observer impl (the event
    // counter) attached to the SAME scenario compiled to both substrates
    // under the lock-step family produces consistent observations —
    // transmitted sends, decisions (values included) and crashes agree
    // exactly, on every cell of the Theorem 8 border grid.
    use kset::core::scenario::differential::check_observed;

    for cell in border_cells(42) {
        let scenario = Scenario::from_cell(&cell);
        let mut sim_counter: EventCounter<Val> = EventCounter::new();
        let mut lock_counter: EventCounter<Val> = EventCounter::new();
        let report = check_observed::<FloodMin>(&scenario, &mut sim_counter, &mut lock_counter)
            .unwrap_or_else(|e| panic!("cell {}: {e}", cell.index));
        assert!(
            report.agrees(),
            "cell {}: {:?}",
            cell.index,
            report.divergences
        );

        let (sim, lock) = (sim_counter.counts(), lock_counter.counts());
        let tag = format!("n={} f={} k={}", cell.n, cell.f, cell.k);
        // Border scenarios have no initially-dead processes, so even the
        // raw send counts (dropped ones included) line up.
        assert_eq!(sim.sends, lock.sends, "{tag}: sends");
        assert_eq!(sim.transmitted(), lock.transmitted(), "{tag}: transmitted");
        assert_eq!(sim.crashes, lock.crashes, "{tag}: crashes");
        assert_eq!(sim.crashes, cell.f as u64, "{tag}: exactly f crashes");
        assert_eq!(sim.decides, lock.decides, "{tag}: decide count");
        assert_eq!(
            sim_counter.decisions_by_process(),
            lock_counter.decisions_by_process(),
            "{tag}: decided values per process"
        );
        // The step substrate may consume messages that reach a buffer
        // before the crash the round executor expresses as "skip the
        // receive phase" — it can deliver more, never less.
        assert!(sim.delivers >= lock.delivers, "{tag}: deliver relation");
        // Substrate-specific units: steps on one side, rounds on the other.
        assert_eq!(lock.rounds, scenario.rounds as u64, "{tag}: rounds");
        assert_eq!(lock.steps, 0, "{tag}: no step events from the rounds side");
        assert_eq!(sim.rounds, 0, "{tag}: no round events from the steps side");
        assert_eq!((sim.halts, lock.halts), (1, 1), "{tag}: one halt each");
    }
}

#[test]
fn observer_counts_agree_exactly_without_crashes() {
    // With no crashes there is no in-flight edge: every event total the
    // counter tracks (deliveries included) is equal across substrates.
    use kset::core::scenario::differential::check_observed;

    let scenario = Scenario::favourable(6, 2, 1);
    let mut sim_counter: EventCounter<Val> = EventCounter::new();
    let mut lock_counter: EventCounter<Val> = EventCounter::new();
    let report = check_observed::<FloodMin>(&scenario, &mut sim_counter, &mut lock_counter)
        .expect("favourable scenario is valid");
    assert_des_is_the_step_engine(&scenario, "crash-free");
    assert!(report.agrees());
    let (sim, lock) = (sim_counter.counts(), lock_counter.counts());
    assert_eq!(sim.sends, lock.sends);
    assert_eq!((sim.dropped, lock.dropped), (0, 0));
    assert_eq!(sim.delivers, lock.delivers);
    assert_eq!(sim.decides, lock.decides);
    assert_eq!((sim.crashes, lock.crashes), (0, 0));
    assert_eq!(
        sim_counter.decisions_by_process(),
        lock_counter.decisions_by_process()
    );
}

#[test]
fn async_schedule_family_divergence_is_flagged_not_fatal() {
    // The deliberately asymmetric scenario: same model point, same crash
    // description, but an asynchronous schedule family. The step-level run
    // consumes incomplete round inboxes, so the substrates disagree — and
    // the report must carry that divergence instead of panicking.
    let base = border_cells(42).remove(2); // (n, k) = (8, 1), f = 4
    let mut diverged = 0usize;
    for seed in 0..16u64 {
        let scenario = Scenario::from_cell(&base).with_schedule(ScheduleFamily::Async {
            seed,
            deliver_percent: 20,
            fairness_window: 4,
        });
        let report = differential::check::<FloodMin>(&scenario)
            .expect("an async family is not a scenario error");
        assert!(!report.lock_step_family);
        // The round-level side is untouched by the schedule family and
        // still solves consensus.
        assert!(report.lockstep.k_agreement(1));
        assert!(report.lockstep.terminated);
        if !report.agrees() {
            diverged += 1;
        }
        assert_des_is_the_step_engine(&scenario, &format!("async seed {seed}"));
    }
    assert!(
        diverged > 0,
        "a 20%-delivery async family must diverge from lock-step on some seed"
    );
}

#[test]
fn explorer_refutes_floodmin_under_all_schedules() {
    // The explorer consumes a compiled scenario directly and quantifies
    // over ALL schedules: FloodMin's round structure only survives the
    // synchronous family, so exhaustive exploration finds a k-agreement
    // violation — the unfavourable side of the border, observed on the
    // same scenario value that the lock-step side solves.
    let scenario = Scenario::favourable(2, 1, 1).with_inputs(vec![3, 9]);
    let config = ExploreConfig {
        max_depth: 8,
        max_states: 50_000,
        branching: Branching::NoneOrAll,
    };
    let report = explore_scenario::<RoundAdapter<FloodMin>>(&scenario, &config, |sim| {
        let distinct: std::collections::BTreeSet<u64> =
            sim.decisions().iter().flatten().copied().collect();
        if distinct.len() > 1 {
            return Err(format!("consensus violated: {distinct:?}"));
        }
        Ok(())
    })
    .expect("valid scenario");
    let violation = report.violation.expect("a violating schedule exists");
    assert!(!violation.path.is_empty(), "the schedule is replayable");

    // The same scenario's lock-step compilation is safe — the explorer's
    // violation is a property of asynchrony, not of the algorithm.
    let diff = differential::check::<FloodMin>(&scenario).expect("valid scenario");
    assert!(diff.agrees());
    assert!(diff.lockstep.k_agreement(1));
}

/// Runs the crash-stop lock-step scenario `lock_sc` (every crash reaches
/// nobody) on the round executor and its timed twin on the discrete-event
/// engine — fixed latency `d`, `gst = 0`, each round-`r` crash struck at
/// the virtual time `1 + (r-1)·d` of step `r` — and asserts that every
/// process decides the same on both.
fn assert_timed_twin_matches(lock_sc: &Scenario, d: u64, seed: u64, tag: &str) {
    let mut lock = to_lockstep::<FloodMin>(lock_sc).unwrap_or_else(|e| panic!("{tag}: {e}"));
    lock.drive(lock_sc.rounds as u64);

    let mut timed_sc = lock_sc.clone().with_schedule(ScheduleFamily::Timed {
        latency: Latency::fixed(d),
        gst: 0,
        seed,
    });
    for crash in &mut timed_sc.crashes {
        // Round r → the virtual time of step r.
        crash.round = 1 + (crash.round - 1) * d as usize;
    }
    let mut des = timed_sc
        .to_des::<RoundAdapter<FloodMin>>()
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
    let status = des.drive(timed_sc.max_units);
    assert!(des.done(), "{tag}: timed run terminates ({status:?})");
    assert_eq!(
        des.decisions(),
        lock.decisions(),
        "{tag}: per-process decisions across the timed/round pair"
    );
    assert_eq!(des.distinct_decisions(), lock.distinct_decisions(), "{tag}");
    assert!(
        des.distinct_decisions().len() <= lock_sc.k,
        "{tag}: k-agreement on the timed substrate"
    );
}

#[test]
fn timed_fixed_latency_replays_the_round_executor() {
    // The timed family has no unit scheduler, so `differential::check`
    // rejects it — instead we compare it against the round executor
    // directly, exploiting the cadence fact pinned by the engine's own
    // tests: with fixed latency `d` and `gst = 0`, step `r` of every
    // process happens at virtual time `1 + (r-1)·d`, and a crash strike
    // scheduled at exactly that instant wins the same-instant tie. A
    // lock-step scenario whose round-`r` crash reaches *nobody* therefore
    // has a timed twin — the same crash expressed in virtual time — and
    // the two substrates must agree on every process's decision.
    for (n, f, k) in [(5usize, 2usize, 1usize), (6, 3, 2), (7, 3, 1)] {
        // Crash process j in round (j mod rounds) + 1 — staying inside the
        // scenario's round budget — with the final message reaching nobody.
        let rounds = f / k + 1;
        let mut lock_sc = Scenario::favourable(n, f, k);
        lock_sc.crashes = (0..f)
            .map(|j| ScenarioCrash {
                pid: ProcessId::new(j),
                round: (j % rounds) + 1,
                receivers: ProcessSet::new(),
            })
            .collect();
        assert_timed_twin_matches(&lock_sc, 4, 0xC0FFEE, &format!("n={n} f={f} k={k}"));
    }

    // The crash-stop twin of every Theorem 8 border cell: the grid the
    // step/round differential checks, on the timed substrate at two
    // latencies.
    for d in [1u64, 4] {
        for cell in border_cells(42) {
            let mut lock_sc = Scenario::from_cell(&cell);
            for crash in &mut lock_sc.crashes {
                crash.receivers = ProcessSet::new();
            }
            assert_timed_twin_matches(
                &lock_sc,
                d,
                cell.seed,
                &format!("cell {} d={d}", cell.index),
            );
        }
    }
}

#[test]
fn timed_uniform_latency_terminates_and_is_seed_deterministic() {
    // Under jittered latencies the round cadence dissolves — steps consume
    // whatever arrived — so neither equality with the round executor nor
    // k-agreement is promised (FloodMin's round structure is exactly what
    // jitter breaks). What IS promised: the run terminates, every decision
    // is one of the proposals, and the whole outcome is a pure function of
    // the seed.
    for seed in 0..8u64 {
        let run = || {
            let scenario = Scenario::favourable(6, 2, 1).with_schedule(ScheduleFamily::Timed {
                latency: Latency::uniform(2, 9),
                gst: 11,
                seed,
            });
            let mut des = scenario
                .to_des::<RoundAdapter<FloodMin>>()
                .expect("valid timed scenario");
            des.drive(scenario.max_units);
            assert!(des.done(), "seed {seed}: the timed run terminates");
            des.decisions()
        };
        let (first, second) = (run(), run());
        assert_eq!(first, second, "seed {seed}: reproducible decisions");
        for (i, d) in first.iter().enumerate() {
            let v = d.unwrap_or_else(|| panic!("seed {seed}: process {i} decided"));
            assert!(v < 6, "seed {seed}: decisions are proposals");
        }
    }
}

#[test]
fn invalid_scenarios_are_typed_errors_on_both_compilers() {
    let bad = Scenario::favourable(4, 1, 1).with_inputs(vec![1]);
    let sim_err = bad.to_sim::<RoundAdapter<FloodMin>>().unwrap_err();
    let lock_err = to_lockstep::<FloodMin>(&bad).unwrap_err();
    assert_eq!(sim_err, lock_err, "one validation, two compilers");
    assert!(differential::check::<FloodMin>(&bad).is_err());
}
