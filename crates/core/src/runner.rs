//! Convenience runners: one-liners for the common (algorithm, scheduler,
//! crash plan) combinations used by tests, examples, and the experiment
//! harness.
//!
//! Every helper builds a [`SimEngine`] — the step-level substrate behind
//! the unified [`Engine`](kset_sim::Engine) trait — and drives it to
//! completion with [`Engine::drive`](kset_sim::Engine::drive), the same
//! loop every substrate runs. Scenario callers compile with
//! `Scenario::to_sim`/`to_des` or
//! [`to_lockstep`](crate::scenario::to_lockstep) and call
//! [`Engine::drive_observed`](kset_sim::Engine::drive_observed)
//! themselves.

use kset_sim::sched::random::SeededRandom;
use kset_sim::sched::round_robin::RoundRobin;
use kset_sim::sched::Scheduler;
use kset_sim::{CrashPlan, NoOracle, Oracle, Process, RunReport, SimEngine, Simulation};

/// Runs an oracle-less algorithm under fair round-robin scheduling.
pub fn run_round_robin<P>(
    inputs: Vec<P::Input>,
    plan: CrashPlan,
    max_steps: u64,
) -> RunReport<P::Output>
where
    P: Process<Fd = ()>,
{
    run_round_robin_with_oracle::<P, _>(inputs, NoOracle, plan, max_steps)
}

/// Runs an oracle-less algorithm under seeded random scheduling.
pub fn run_seeded<P>(
    inputs: Vec<P::Input>,
    plan: CrashPlan,
    seed: u64,
    max_steps: u64,
) -> RunReport<P::Output>
where
    P: Process<Fd = ()>,
{
    run_seeded_with_oracle::<P, _>(inputs, NoOracle, plan, seed, max_steps)
}

/// Runs an algorithm with a failure-detector oracle under round-robin.
pub fn run_round_robin_with_oracle<P, O>(
    inputs: Vec<P::Input>,
    oracle: O,
    plan: CrashPlan,
    max_steps: u64,
) -> RunReport<P::Output>
where
    P: Process,
    P::Fd: std::hash::Hash,
    O: Oracle<Sample = P::Fd>,
{
    run_with::<P, _, _>(inputs, oracle, plan, RoundRobin::new(), max_steps)
}

/// Runs an algorithm with a failure-detector oracle under seeded random
/// scheduling.
pub fn run_seeded_with_oracle<P, O>(
    inputs: Vec<P::Input>,
    oracle: O,
    plan: CrashPlan,
    seed: u64,
    max_steps: u64,
) -> RunReport<P::Output>
where
    P: Process,
    P::Fd: std::hash::Hash,
    O: Oracle<Sample = P::Fd>,
{
    let sched = SeededRandom::new(seed).with_fairness_window(16);
    run_with::<P, _, _>(inputs, oracle, plan, sched, max_steps)
}

/// Builds the [`SimEngine`] for an algorithm, oracle and scheduler and
/// drives it to its report.
fn run_with<P, O, S>(
    inputs: Vec<P::Input>,
    oracle: O,
    plan: CrashPlan,
    sched: S,
    max_steps: u64,
) -> RunReport<P::Output>
where
    P: Process,
    P::Fd: std::hash::Hash,
    O: Oracle<Sample = P::Fd>,
    S: Scheduler<P::Msg>,
{
    // kset-lint: allow(unchecked-capacity): convenience runner mirroring Simulation::with_oracle's documented panicking contract for oversized input vectors
    let sim: Simulation<P, O> = Simulation::with_oracle(inputs, oracle, plan);
    SimEngine::new(sim, sched).drive_to_report(max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive::DecideOwn;
    use crate::algorithms::two_stage::{two_stage_inputs, TwoStage};
    use crate::task::distinct_proposals;
    use kset_sim::sched::partition::{PartitionScheduler, ReleasePolicy};
    use kset_sim::{Engine, ProcessId, ProcessSet};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn round_robin_runner_works() {
        let report = run_round_robin::<DecideOwn>(distinct_proposals(3), CrashPlan::none(), 100);
        assert!(report.all_correct_decided());
    }

    #[test]
    fn seeded_runner_is_reproducible() {
        let a = run_seeded::<TwoStage>(
            two_stage_inputs(2, &distinct_proposals(4)),
            CrashPlan::none(),
            7,
            100_000,
        );
        let b = run_seeded::<TwoStage>(
            two_stage_inputs(2, &distinct_proposals(4)),
            CrashPlan::none(),
            7,
            100_000,
        );
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn partitioned_runner_isolates_blocks() {
        // Two-stage with L = 2 under a {p1,p2} | {p3,p4} partition: each
        // block decides among its own values.
        let n = 4;
        let blocks: Vec<ProcessSet> = vec![[pid(0), pid(1)].into(), [pid(2), pid(3)].into()];
        let mut engine = SimEngine::new(
            Simulation::<TwoStage, _>::new(
                two_stage_inputs(2, &distinct_proposals(n)),
                CrashPlan::none(),
            ),
            PartitionScheduler::new(blocks, ReleasePolicy::AfterAllDecided),
        );
        let report = engine.drive_to_report(100_000);
        assert!(report.all_correct_decided());
        assert_eq!(report.decisions[0], Some(0));
        assert_eq!(report.decisions[2], Some(2));
        assert_eq!(report.distinct_decisions.len(), 2);
    }

    #[test]
    fn engine_runner_is_substrate_agnostic() {
        // The same drive entry point runs both substrates.
        use crate::algorithms::floodmin::{floodmin_rounds, FloodMin};
        use crate::sync::LockStep;
        use kset_sim::StopReason;

        let mut sim_engine = SimEngine::new(
            Simulation::<DecideOwn, _>::new(distinct_proposals(3), CrashPlan::none()),
            RoundRobin::new(),
        );
        let status = sim_engine.drive(100);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);

        let procs = FloodMin::system(&distinct_proposals(3), 0, 1);
        let mut lockstep = LockStep::new(procs, floodmin_rounds(0, 1), &[]);
        let status = lockstep.drive(100);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
        assert_eq!(lockstep.distinct_decisions().len(), 1);
    }
}
