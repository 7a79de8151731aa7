//! The simulation engine: executes runs of an algorithm under a scheduler.
//!
//! Two execution substrates live in the workspace — this step-level
//! simulator and `kset-core`'s lock-step round executor. Both implement the
//! [`Engine`] trait (this simulator through [`SimEngine`], which pairs a
//! [`Simulation`] with a scheduler), so runners, experiment harnesses and
//! benches can drive either substrate through one API.
//!
//! [`Simulation`] holds the full configuration of the paper's model
//! (Section II): the vector of local states and the per-process message
//! buffers. Each call to [`Simulation::step`] performs one atomic step of
//! one process — receive a scheduler-chosen subset of its buffer, sample the
//! failure detector (when the model provides one), apply the deterministic
//! transition, and enqueue the emitted messages — advancing global time by
//! one, exactly as in the run definition `ρ = (C0, C1, …)`.
//!
//! Crashes come from a [`CrashPlan`]: initially-dead processes never step;
//! a scheduled crash ends the process's final step with an [`Omission`]
//! rule applied to that step's sends (the model's "may omit sending messages
//! to a subset of receivers in the very last step").

use std::collections::BTreeSet;

use crate::buffer::Buffer;
use crate::failure::{CrashPlan, FailurePattern};
use crate::ids::{CapacityError, MsgId, ProcessId, Time};
use crate::message::{fingerprint, Envelope};
use crate::observe::{
    CrashEvent, DecideEvent, DeliverEvent, FdSampleEvent, HaltEvent, NoObserver, Observer,
    SendEvent, StepEvent,
};
use crate::oracle::{NoOracle, Oracle};
use crate::process::{Effects, Process, ProcessInfo};
use crate::sched::{Choice, Delivery, Scheduler, SimView, Status};
use crate::trace::{Trace, TraceRecorder};

/// Errors surfaced by [`Simulation::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The selected process has already crashed (or is initially dead).
    ProcessCrashed(ProcessId),
    /// The selected process id is out of range.
    InvalidProcess(ProcessId),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProcessCrashed(p) => write!(f, "process {p} has crashed and cannot step"),
            SimError::InvalidProcess(p) => write!(f, "process {p} does not exist"),
        }
    }
}

impl std::error::Error for SimError {}

/// A protocol violation observed during a run (recorded, not fatal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A process attempted to overwrite its write-once decision with a
    /// different value.
    DoubleDecision {
        /// The offending process.
        pid: ProcessId,
        /// Time of the second, conflicting decision.
        time: Time,
    },
}

/// Why [`Simulation::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every process that is correct under the crash plan has decided.
    AllCorrectDecided,
    /// The scheduler returned `None`.
    SchedulerDone,
    /// The step limit was reached.
    StepLimit,
}

/// Outcome summary of [`Simulation::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStatus {
    /// Steps executed by this call.
    pub steps: u64,
    /// Why the loop stopped.
    pub stop: StopReason,
}

/// Complete result of a finished run prefix: decisions, failure pattern,
/// violations, and the full trace.
#[derive(Debug, Clone)]
pub struct RunReport<V> {
    /// Per-process decisions (`None` = undecided in this prefix).
    pub decisions: Vec<Option<V>>,
    /// The set of distinct decision values — the quantity bounded by
    /// k-Agreement.
    pub distinct_decisions: BTreeSet<V>,
    /// The failure pattern `F(·)` of the run.
    pub failure_pattern: FailurePattern,
    /// Protocol violations observed (write-once breaches).
    pub violations: Vec<Violation>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Total steps taken over the simulation's lifetime.
    pub steps: u64,
    /// The recorded trace.
    pub trace: Trace<V>,
}

impl<V: Clone + Ord> RunReport<V> {
    /// Whether every correct process (w.r.t. the run's failure pattern)
    /// decided.
    pub fn all_correct_decided(&self) -> bool {
        self.failure_pattern
            .correct()
            .iter()
            .all(|p| self.decisions[p.index()].is_some())
    }

    /// Number of distinct decision values in the run — at most `k` iff the
    /// run satisfies k-Agreement.
    pub fn num_distinct_decisions(&self) -> usize {
        self.distinct_decisions.len()
    }
}

/// A running instance of an algorithm `P` in the simulated system, with
/// failure-detector oracle `O`.
///
/// `Simulation` is `Clone` when the oracle is, which is what enables the
/// exhaustive schedule exploration of [`crate::explore`]: a configuration
/// can be forked and driven down different scheduling branches.
#[derive(Debug)]
pub struct Simulation<P: Process, O: Oracle<Sample = P::Fd>> {
    n: usize,
    procs: Vec<P>,
    statuses: Vec<Status>,
    decided: Vec<Option<P::Output>>,
    decided_flags: Vec<bool>,
    buffers: Vec<Buffer<P::Msg>>,
    oracle: O,
    crash_plan: CrashPlan,
    time: Time,
    next_msg_id: u64,
    observed: FailurePattern,
    violations: Vec<Violation>,
    recorder: TraceRecorder<P::Output>,
    total_steps: u64,
}

impl<P> Simulation<P, NoOracle>
where
    P: Process<Fd = ()>,
{
    /// Creates a simulation without failure detectors (dimension 6
    /// unfavourable): each process `p_i` starts with `inputs[i]`. The
    /// process still receives `Some(&())` as its sample so that traces of
    /// oracle-less and oracle-backed executions fingerprint identically.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` exceeds [`crate::ProcessSet::CAPACITY`]
    /// (the bitset-backed process sets cap the system size);
    /// [`Simulation::try_new`] is the fallible form.
    pub fn new(inputs: Vec<P::Input>, crash_plan: CrashPlan) -> Self {
        match Self::try_new(inputs, crash_plan) {
            Ok(sim) => sim,
            // kset-lint: allow(panic-in-library): documented panicking convenience wrapper over try_new
            Err(e) => panic!("system size {e}"),
        }
    }

    /// Creates a simulation without failure detectors, or a
    /// [`CapacityError`] if `inputs.len()` exceeds
    /// [`crate::ProcessSet::CAPACITY`].
    pub fn try_new(inputs: Vec<P::Input>, crash_plan: CrashPlan) -> Result<Self, CapacityError> {
        Self::build(inputs, NoOracle, crash_plan)
    }
}

impl<P, O> Simulation<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
{
    /// Creates a simulation in which every step queries the given
    /// failure-detector oracle (dimension 6 favourable).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` exceeds [`crate::ProcessSet::CAPACITY`];
    /// [`Simulation::try_with_oracle`] is the fallible form.
    pub fn with_oracle(inputs: Vec<P::Input>, oracle: O, crash_plan: CrashPlan) -> Self {
        match Self::try_with_oracle(inputs, oracle, crash_plan) {
            Ok(sim) => sim,
            // kset-lint: allow(panic-in-library): documented panicking convenience wrapper over try_with_oracle
            Err(e) => panic!("system size {e}"),
        }
    }

    /// Creates an oracle-backed simulation, or a [`CapacityError`] if
    /// `inputs.len()` exceeds [`crate::ProcessSet::CAPACITY`] — the typed
    /// form for callers (sweep grids, scenario loaders) that validate
    /// system sizes at the boundary.
    pub fn try_with_oracle(
        inputs: Vec<P::Input>,
        oracle: O,
        crash_plan: CrashPlan,
    ) -> Result<Self, CapacityError> {
        Self::build(inputs, oracle, crash_plan)
    }

    fn build(
        inputs: Vec<P::Input>,
        oracle: O,
        crash_plan: CrashPlan,
    ) -> Result<Self, CapacityError> {
        let n = inputs.len();
        if n > crate::ids::ProcessSet::CAPACITY {
            return Err(CapacityError::new(n, crate::ids::ProcessSet::CAPACITY));
        }
        let procs: Vec<P> = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| P::init(ProcessInfo::new(ProcessId::new(i), n), input))
            .collect();
        let mut recorder = TraceRecorder::new(n);
        let mut statuses = vec![Status::Alive { local_steps: 0 }; n];
        let mut observed = FailurePattern::all_correct(n);
        for p in crash_plan.initially_dead_set() {
            statuses[p.index()] = Status::Crashed { at: Time::ZERO };
            observed.record_crash(p, Time::ZERO);
            recorder.on_crash(&CrashEvent {
                pid: p,
                time: Time::ZERO,
                after_step: false,
            });
        }
        Ok(Simulation {
            n,
            procs,
            statuses,
            decided: vec![None; n],
            decided_flags: vec![false; n],
            buffers: (0..n).map(|_| Buffer::new()).collect(),
            oracle,
            crash_plan,
            time: Time::ZERO,
            next_msg_id: 0,
            observed,
            violations: Vec::new(),
            recorder,
            total_steps: 0,
        })
    }

    /// System size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current global time.
    pub fn time(&self) -> Time {
        self.time
    }

    /// Whether `pid` can still take steps.
    pub fn is_alive(&self, pid: ProcessId) -> bool {
        self.statuses[pid.index()].is_alive()
    }

    /// The decision of `pid`, if made.
    pub fn decision(&self, pid: ProcessId) -> Option<&P::Output> {
        self.decided[pid.index()].as_ref()
    }

    /// Per-process decisions.
    pub fn decisions(&self) -> &[Option<P::Output>] {
        &self.decided
    }

    /// The current local state of `pid` (for white-box assertions in tests).
    pub fn state(&self, pid: ProcessId) -> &P {
        &self.procs[pid.index()]
    }

    /// The pending-message buffer of `pid`.
    pub fn buffer(&self, pid: ProcessId) -> &Buffer<P::Msg> {
        &self.buffers[pid.index()]
    }

    /// The failure pattern observed so far.
    pub fn failure_pattern(&self) -> &FailurePattern {
        &self.observed
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace<P::Output> {
        self.recorder.trace()
    }

    /// The crash plan driving failures.
    pub fn crash_plan(&self) -> &CrashPlan {
        &self.crash_plan
    }

    /// Whether every process that is correct under the crash plan has
    /// decided.
    pub fn all_correct_decided(&self) -> bool {
        let faulty = self.crash_plan.faulty();
        ProcessId::all(self.n)
            .filter(|p| !faulty.contains(*p))
            .all(|p| self.decided[p.index()].is_some())
    }

    /// Executes one atomic step of `pid` with the given delivery.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessCrashed`] if `pid` already crashed, and
    /// [`SimError::InvalidProcess`] if `pid` is out of range.
    pub fn step(&mut self, pid: ProcessId, delivery: Delivery) -> Result<(), SimError> {
        self.step_observed(pid, delivery, &mut NoObserver)
    }

    /// Executes one atomic step of `pid`, reporting the step's typed
    /// events — deliveries, the detector sample, a (first) decision, the
    /// sends, the closing step summary and a possible crash — to `obs`.
    ///
    /// Every step flows through here: the unobserved [`Simulation::step`]
    /// is this method with a [`NoObserver`], monomorphized away, and the
    /// engine's own trace is assembled by an internal
    /// [`TraceRecorder`] fed from the *same* event stream, so internal and
    /// external observers can never disagree about what a step did.
    ///
    /// # Errors
    ///
    /// As [`Simulation::step`].
    pub fn step_observed<Ob>(
        &mut self,
        pid: ProcessId,
        delivery: Delivery,
        obs: &mut Ob,
    ) -> Result<(), SimError>
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        if pid.index() >= self.n {
            return Err(SimError::InvalidProcess(pid));
        }
        if !self.statuses[pid.index()].is_alive() {
            return Err(SimError::ProcessCrashed(pid));
        }
        self.time = self.time.next();
        self.total_steps += 1;

        // 1. Receive: extract the chosen subset of the buffer.
        let delivered: Vec<Envelope<P::Msg>> = {
            let buf = &mut self.buffers[pid.index()];
            match delivery {
                Delivery::None => Vec::new(),
                Delivery::All => buf.take_all(),
                Delivery::AllFrom(srcs) => buf.take_all_from(srcs),
                Delivery::OldestPerSource(list) => {
                    let mut out = Vec::new();
                    for (src, count) in list {
                        out.extend(buf.take_oldest_from(src, count));
                    }
                    out
                }
                Delivery::Ids(ids) => buf.take_ids(&ids),
            }
        };

        // 2. Query the failure detector. In the unfavourable dimension-6
        // setting the oracle is `NoOracle` and the sample is `()` — still
        // passed as `Some` so that state/observation fingerprints do not
        // depend on how the simulation was constructed.
        let fd_sample: Option<P::Fd> = Some(self.oracle.sample(pid, self.time, &self.observed));
        let fd_fp = fd_sample.as_ref().map(fingerprint);

        // 3. Atomic transition.
        let info = ProcessInfo::new(pid, self.n);
        let mut effects = Effects::new(info);
        self.procs[pid.index()].step(&delivered, fd_sample.as_ref(), &mut effects);
        let (sends, decision) = effects.into_parts();

        // 4. Write-once decision discipline.
        let mut decided_now = None;
        if let Some(v) = decision {
            match &self.decided[pid.index()] {
                None => {
                    self.decided[pid.index()] = Some(v.clone());
                    self.decided_flags[pid.index()] = true;
                    decided_now = Some(v);
                }
                Some(existing) if *existing == v => {}
                Some(_) => {
                    self.violations.push(Violation::DoubleDecision {
                        pid,
                        time: self.time,
                    });
                }
            }
        }

        // 5. Crash check: does this step complete the process's final step?
        let local_steps = match &mut self.statuses[pid.index()] {
            Status::Alive { local_steps } => {
                *local_steps += 1;
                *local_steps
            }
            // kset-lint: allow(panic-in-library): invariant — step() returns Err(StepError::Crashed) before reaching this match, so the arm is dead by the liveness check above
            Status::Crashed { .. } => unreachable!("liveness checked above"),
        };
        let omission = match self.crash_plan.crash_for(pid) {
            Some((s, om)) if local_steps >= s => Some(om.clone()),
            _ => None,
        };

        // 6. Send: enqueue surviving messages, record all (with drop flag).
        // A send to an out-of-range destination can never be delivered, so
        // it is recorded as dropped — traces and fingerprints must not claim
        // a delivery that never happened.
        let mut sent: Vec<SendEvent> = Vec::with_capacity(sends.len());
        for (dst, payload) in sends {
            let id = MsgId::new(self.next_msg_id);
            self.next_msg_id += 1;
            let dropped =
                dst.index() >= self.n || omission.as_ref().is_some_and(|om| !om.delivers_to(dst));
            let payload_fp = fingerprint(&payload);
            if !dropped {
                self.buffers[dst.index()].push(Envelope::new(id, pid, dst, self.time, payload));
            }
            sent.push(SendEvent {
                time: self.time,
                src: pid,
                dst,
                id: Some(id),
                payload_fp: Some(payload_fp),
                dropped,
            });
        }

        // 7. Report the step's events — to the internal trace recorder and
        // the external observer alike, in the contract order of
        // `crate::observe`: deliveries, detector sample, decision, sends,
        // the closing step summary, and the crash if this was the final
        // step. The trace is assembled from exactly this stream.
        macro_rules! emit {
            ($method:ident, $ev:expr) => {{
                let ev = $ev;
                self.recorder.$method(&ev);
                obs.$method(&ev);
            }};
        }
        for env in &delivered {
            emit!(
                on_deliver,
                DeliverEvent {
                    time: self.time,
                    src: env.src,
                    dst: pid,
                    id: Some(env.id),
                    payload_fp: Some(env.payload_fingerprint()),
                }
            );
        }
        emit!(
            on_fd_sample,
            FdSampleEvent {
                time: self.time,
                pid,
                fd_fp,
            }
        );
        if let Some(value) = decided_now {
            emit!(
                on_decide,
                DecideEvent {
                    time: self.time,
                    pid,
                    value,
                }
            );
        }
        for ev in &sent {
            self.recorder.on_send(ev);
            obs.on_send(ev);
        }
        emit!(
            on_step,
            StepEvent {
                time: self.time,
                pid,
                local_step: local_steps,
                state_fp: fingerprint(&self.procs[pid.index()]),
                delivered: delivered.len(),
                sent: sent.len(),
            }
        );
        if omission.is_some() {
            self.statuses[pid.index()] = Status::Crashed { at: self.time };
            self.observed.record_crash(pid, self.time);
            emit!(
                on_crash,
                CrashEvent {
                    pid,
                    time: self.time,
                    after_step: true,
                }
            );
        }
        Ok(())
    }

    /// Runs under `scheduler` until every correct process decided, the
    /// scheduler stops, or `max_steps` further steps were taken.
    ///
    /// The termination policy is [`Engine::drive`]'s — this borrows `self`
    /// and the scheduler into a transient engine, so the loop exists in
    /// exactly one place.
    pub fn run<S>(&mut self, scheduler: &mut S, max_steps: u64) -> RunStatus
    where
        S: Scheduler<P::Msg> + ?Sized,
    {
        let mut engine = BorrowedSimEngine {
            sim: self,
            sched: scheduler,
            units: 0,
        };
        engine.drive(max_steps)
    }

    /// Replays to `obs` the crash events that predate any drive: the
    /// initially-dead processes, recorded at construction time. Called by
    /// [`Engine::drive_observed`] so a late-attached observer still sees
    /// the full failure pattern.
    pub fn announce_initial<Ob>(&self, obs: &mut Ob)
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        for pid in self.crash_plan.initially_dead_set() {
            obs.on_crash(&CrashEvent {
                pid,
                time: Time::ZERO,
                after_step: false,
            });
        }
    }

    /// One scheduler-driven unit: ask `scheduler` for a choice and apply it.
    /// Returns `false` when the scheduler has no further moves. A scheduler
    /// picking a crashed process still consumes the unit (adversaries built
    /// from plans may race with plan-driven crashes; they get to observe the
    /// new state on the next call).
    fn step_once<S, Ob>(&mut self, scheduler: &mut S, obs: &mut Ob) -> bool
    where
        S: Scheduler<P::Msg> + ?Sized,
        Ob: Observer<P::Output> + ?Sized,
    {
        let choice = {
            let view = SimView {
                n: self.n,
                time: self.time,
                statuses: &self.statuses,
                decided: &self.decided_flags,
                buffers: &self.buffers,
            };
            scheduler.next(&view)
        };
        let Some(Choice { pid, delivery }) = choice else {
            return false;
        };
        let _ = self.step_observed(pid, delivery, obs);
        true
    }

    /// Produces the report of the run so far (cloning the trace).
    pub fn report(&self, stop: StopReason) -> RunReport<P::Output> {
        let decisions = self.decided.clone();
        let distinct_decisions: BTreeSet<P::Output> = decisions.iter().flatten().cloned().collect();
        RunReport {
            decisions,
            distinct_decisions,
            failure_pattern: self.observed.clone(),
            violations: self.violations.clone(),
            stop,
            steps: self.total_steps,
            trace: self.recorder.trace().clone(),
        }
    }

    /// Runs to completion under `scheduler` and returns the report.
    pub fn run_to_report<S>(&mut self, scheduler: &mut S, max_steps: u64) -> RunReport<P::Output>
    where
        S: Scheduler<P::Msg> + ?Sized,
    {
        let status = self.run(scheduler, max_steps);
        self.report(status.stop)
    }

    /// A fingerprint of the whole configuration: local states, decisions,
    /// liveness, and buffered messages. Two configurations with equal
    /// fingerprints continue identically under identical future schedules
    /// (up to hash collision), which is what the exhaustive explorer's
    /// state deduplication relies on.
    pub fn config_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (i, p) in self.procs.iter().enumerate() {
            i.hash(&mut h);
            p.hash(&mut h);
            self.statuses[i].is_alive().hash(&mut h);
            self.decided_flags[i].hash(&mut h);
            // Buffer contents: (src, payload) multiset in FIFO order.
            for env in self.buffers[i].iter() {
                env.src.hash(&mut h);
                env.payload.hash(&mut h);
            }
        }
        h.finish()
    }
}

impl<P, O> Clone for Simulation<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd> + Clone,
{
    fn clone(&self) -> Self {
        Simulation {
            n: self.n,
            procs: self.procs.clone(),
            statuses: self.statuses.clone(),
            decided: self.decided.clone(),
            decided_flags: self.decided_flags.clone(),
            buffers: self.buffers.clone(),
            oracle: self.oracle.clone(),
            crash_plan: self.crash_plan.clone(),
            time: self.time,
            next_msg_id: self.next_msg_id,
            observed: self.observed.clone(),
            violations: self.violations.clone(),
            recorder: self.recorder.clone(),
            total_steps: self.total_steps,
        }
    }
}

/// One execution substrate: something that advances a distributed
/// computation unit by unit and reports decisions.
///
/// The workspace has three substrates — the step-level [`Simulation`]
/// (driven through [`SimEngine`], which pairs it with a scheduler), the
/// discrete-event [`DesEngine`](crate::des::DesEngine), and the lock-step
/// round executor of `kset-core::sync` (its `LockStep` newtype). Runners,
/// the experiment harness and the benches are written against this trait so
/// any substrate plugs in.
///
/// A substrate implements one per-unit method,
/// [`Engine::advance_observed`]; [`Engine::drive_observed`] is the one
/// drive loop, and [`Engine::drive`] is that loop with a [`NoObserver`].
///
/// A *unit* is the substrate's natural quantum: one process step for the
/// simulator (and the discrete-event engine), one full round for the
/// lock-step executor.
pub trait Engine {
    /// The decision value type.
    type Output: Clone + Ord;

    /// System size `n`.
    fn n(&self) -> usize;

    /// Executes one unit of work, reporting its typed run events to `obs`
    /// (see [`crate::observe`] for the per-substrate emission contract).
    /// Returns `false` when the substrate has no further moves (scheduler
    /// exhausted / heap drained / all rounds executed).
    ///
    /// Every substrate checks [`Observer::observes_events`] once per unit
    /// and runs a path monomorphized over [`NoObserver`] when it is
    /// `false`, so an unobserved unit costs no virtual call per event.
    fn advance_observed(&mut self, obs: &mut dyn Observer<Self::Output>) -> bool;

    /// Reports to `obs` the events that predate any drive (e.g. the
    /// step substrate's initially-dead crashes, recorded at construction).
    /// Called once by [`Engine::drive_observed`] before the first unit, so
    /// an observer attached late still sees the full failure pattern. The
    /// default announces nothing.
    fn announce_initial(&self, obs: &mut dyn Observer<Self::Output>) {
        let _ = obs;
    }

    /// Whether the substrate reached its goal: every correct process
    /// decided (plus, for the lock-step executor, every scheduled round
    /// executed). [`Engine::drive`] maps this to
    /// [`StopReason::AllCorrectDecided`].
    fn done(&self) -> bool;

    /// Units executed over the engine's lifetime.
    fn units(&self) -> u64;

    /// Snapshot of the per-process decisions.
    fn decisions(&self) -> Vec<Option<Self::Output>>;

    /// The distinct decision values so far — the quantity k-Agreement
    /// bounds.
    fn distinct_decisions(&self) -> BTreeSet<Self::Output> {
        self.decisions().into_iter().flatten().collect()
    }

    /// Drives the engine until [`Engine::done`], the substrate runs out of
    /// moves, or `max_units` further units were executed: exactly
    /// [`Engine::drive_observed`] with a [`NoObserver`].
    fn drive(&mut self, max_units: u64) -> RunStatus {
        self.drive_observed(max_units, &mut NoObserver)
    }

    /// Drives the engine until [`Engine::done`], the substrate runs out of
    /// moves, or `max_units` further units were executed, reporting every
    /// run event to `obs`: first [`Engine::announce_initial`], then
    /// the per-unit events of [`Engine::advance_observed`], and finally
    /// one [`Observer::on_halt`] carrying the drive's status — emitted on
    /// every exit path, so an observer can always bracket a run.
    ///
    /// This is the only drive loop: the same call drives every substrate,
    /// which is what lets runners, the differential harness and the sweep
    /// workers thread one observer through any of them.
    fn drive_observed(
        &mut self,
        max_units: u64,
        obs: &mut dyn Observer<Self::Output>,
    ) -> RunStatus {
        self.announce_initial(obs);
        let mut steps = 0;
        let status = loop {
            if self.done() {
                break RunStatus {
                    steps,
                    stop: StopReason::AllCorrectDecided,
                };
            }
            if steps >= max_units {
                break RunStatus {
                    steps,
                    stop: StopReason::StepLimit,
                };
            }
            if !self.advance_observed(obs) {
                break RunStatus {
                    steps,
                    stop: StopReason::SchedulerDone,
                };
            }
            steps += 1;
        };
        obs.on_halt(&HaltEvent {
            status,
            units: self.units(),
        });
        status
    }
}

/// Transient [`Engine`] over a *borrowed* simulation and scheduler — the
/// engine form of [`Simulation::run`], so the termination policy of
/// [`Engine::drive`] is the only run loop in the crate.
struct BorrowedSimEngine<'a, P, O, S>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    S: Scheduler<P::Msg> + ?Sized,
{
    sim: &'a mut Simulation<P, O>,
    sched: &'a mut S,
    units: u64,
}

impl<P, O, S> Engine for BorrowedSimEngine<'_, P, O, S>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
    S: Scheduler<P::Msg> + ?Sized,
{
    type Output = P::Output;

    fn n(&self) -> usize {
        self.sim.n()
    }

    fn advance_observed(&mut self, obs: &mut dyn Observer<P::Output>) -> bool {
        let progressed = if obs.observes_events() {
            self.sim.step_once(self.sched, obs)
        } else {
            self.sim.step_once(self.sched, &mut NoObserver)
        };
        if progressed {
            self.units += 1;
        }
        progressed
    }

    fn announce_initial(&self, obs: &mut dyn Observer<P::Output>) {
        self.sim.announce_initial(obs);
    }

    fn done(&self) -> bool {
        self.sim.all_correct_decided()
    }

    fn units(&self) -> u64 {
        self.units
    }

    fn decisions(&self) -> Vec<Option<P::Output>> {
        self.sim.decisions().to_vec()
    }
}

/// The step-level substrate behind the [`Engine`] trait: a [`Simulation`]
/// paired with the scheduler that drives it.
///
/// # Examples
///
/// ```
/// use kset_sim::sched::round_robin::RoundRobin;
/// # use kset_sim::{CrashPlan, Effects, Envelope, Process, ProcessInfo};
/// use kset_sim::{Engine, SimEngine, Simulation, StopReason};
/// # #[derive(Debug, Clone, Hash)]
/// # struct Echo(u32, bool);
/// # impl Process for Echo {
/// #     type Msg = u32;
/// #     type Input = u32;
/// #     type Output = u32;
/// #     type Fd = ();
/// #     fn init(_info: ProcessInfo, input: u32) -> Self { Echo(input, false) }
/// #     fn step(&mut self, _d: &[Envelope<u32>], _fd: Option<&()>, e: &mut Effects<u32, u32>) {
/// #         e.decide(self.0);
/// #     }
/// # }
///
/// let sim: Simulation<Echo, _> = Simulation::new(vec![7, 7], CrashPlan::none());
/// let mut engine = SimEngine::new(sim, RoundRobin::new());
/// let status = engine.drive(100);
/// assert_eq!(status.stop, StopReason::AllCorrectDecided);
/// assert_eq!(engine.distinct_decisions().len(), 1);
/// ```
#[derive(Debug)]
pub struct SimEngine<P, O, S>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
{
    sim: Simulation<P, O>,
    sched: S,
    units: u64,
}

impl<P, O, S> SimEngine<P, O, S>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
    S: Scheduler<P::Msg>,
{
    /// Pairs a simulation with its scheduler.
    pub fn new(sim: Simulation<P, O>, sched: S) -> Self {
        SimEngine {
            sim,
            sched,
            units: 0,
        }
    }

    /// Read access to the wrapped simulation.
    pub fn simulation(&self) -> &Simulation<P, O> {
        &self.sim
    }

    /// Unwraps the engine back into the simulation.
    pub fn into_simulation(self) -> Simulation<P, O> {
        self.sim
    }

    /// The full run report of the wrapped simulation (trace included).
    pub fn report(&self, stop: StopReason) -> RunReport<P::Output> {
        self.sim.report(stop)
    }

    /// Drives to completion and returns the report — the [`Engine`]
    /// counterpart of [`Simulation::run_to_report`].
    pub fn drive_to_report(&mut self, max_units: u64) -> RunReport<P::Output> {
        let status = self.drive(max_units);
        self.report(status.stop)
    }
}

impl<P, O, S> Engine for SimEngine<P, O, S>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
    S: Scheduler<P::Msg>,
{
    type Output = P::Output;

    fn n(&self) -> usize {
        self.sim.n()
    }

    fn advance_observed(&mut self, obs: &mut dyn Observer<P::Output>) -> bool {
        let progressed = if obs.observes_events() {
            self.sim.step_once(&mut self.sched, obs)
        } else {
            self.sim.step_once(&mut self.sched, &mut NoObserver)
        };
        if progressed {
            self.units += 1;
        }
        progressed
    }

    fn announce_initial(&self, obs: &mut dyn Observer<P::Output>) {
        self.sim.announce_initial(obs);
    }

    fn done(&self) -> bool {
        self.sim.all_correct_decided()
    }

    fn units(&self) -> u64 {
        self.units
    }

    fn decisions(&self) -> Vec<Option<P::Output>> {
        self.sim.decisions().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::Omission;
    use crate::process::{Effects, ProcessInfo};
    use crate::trace::TraceEvent;

    /// A toy process: broadcasts its input once, decides the minimum value
    /// it has seen once it heard from everyone alive it expects (here:
    /// simply after receiving `quorum` values including its own).
    #[derive(Debug, Clone, Hash)]
    struct MinEcho {
        info_id: usize,
        n: usize,
        quorum: usize,
        seen: Vec<u64>,
        sent: bool,
        decided: bool,
    }

    impl Process for MinEcho {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Fd = ();

        fn init(info: ProcessInfo, input: u64) -> Self {
            MinEcho {
                info_id: info.id.index(),
                n: info.n,
                quorum: info.n,
                seen: vec![input],
                sent: false,
                decided: false,
            }
        }

        fn step(
            &mut self,
            delivered: &[Envelope<u64>],
            _fd: Option<&()>,
            effects: &mut Effects<u64, u64>,
        ) {
            if !self.sent {
                self.sent = true;
                effects.broadcast(self.seen[0]);
            }
            for env in delivered {
                self.seen.push(env.payload);
            }
            if !self.decided && self.seen.len() > self.n {
                // own + n broadcast copies (incl. self-delivery).
                self.decided = true;
                effects.decide(*self.seen.iter().min().unwrap());
            }
        }
    }

    fn run_min_echo(inputs: Vec<u64>, plan: CrashPlan) -> RunReport<u64> {
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(inputs, plan);
        let mut rr = crate::sched::round_robin::RoundRobin::new();
        sim.run_to_report(&mut rr, 10_000)
    }

    #[test]
    fn all_correct_processes_decide_the_minimum() {
        let report = run_min_echo(vec![5, 3, 9], CrashPlan::none());
        assert!(report.all_correct_decided());
        assert_eq!(report.distinct_decisions.len(), 1);
        assert_eq!(report.decisions, vec![Some(3), Some(3), Some(3)]);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn initially_dead_process_never_steps() {
        let plan = CrashPlan::initially_dead([ProcessId::new(2)]);
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![5, 3, 9], plan);
        assert!(!sim.is_alive(ProcessId::new(2)));
        let err = sim.step(ProcessId::new(2), Delivery::All).unwrap_err();
        assert_eq!(err, SimError::ProcessCrashed(ProcessId::new(2)));
        // The quorum of n values can never be reached: p3's input is lost.
        let mut rr = crate::sched::round_robin::RoundRobin::new();
        let status = sim.run(&mut rr, 500);
        assert_eq!(status.stop, StopReason::StepLimit);
        let report = sim.report(status.stop);
        assert_eq!(report.failure_pattern.faulty(), [ProcessId::new(2)].into());
    }

    #[test]
    fn scheduled_crash_applies_send_omission() {
        // p1 crashes after its first step, dropping all of its broadcast.
        let plan = CrashPlan::none().with_crash_after(ProcessId::new(0), 1, Omission::All);
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2, 3], plan);
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        assert!(!sim.is_alive(ProcessId::new(0)));
        // Nothing of p1's broadcast reached any buffer.
        for p in ProcessId::all(3) {
            assert_eq!(
                sim.buffer(p).len(),
                0,
                "dropped broadcast must not be buffered"
            );
        }
        let fp = sim.failure_pattern();
        assert_eq!(fp.crash_time(ProcessId::new(0)), Some(Time::new(1)));
    }

    #[test]
    fn scheduled_crash_partial_omission() {
        // p1 crashes in its first step but its message to p2 survives.
        let keep: Omission = Omission::KeepOnlyTo([ProcessId::new(1)].into());
        let plan = CrashPlan::none().with_crash_after(ProcessId::new(0), 1, keep);
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2, 3], plan);
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        assert_eq!(sim.buffer(ProcessId::new(1)).len(), 1);
        assert_eq!(sim.buffer(ProcessId::new(2)).len(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the ProcessSet capacity")]
    fn oversized_system_rejected_at_construction() {
        // The 128-process cap must fail fast at the system boundary, not
        // deep inside a set operation mid-run.
        let _: Simulation<MinEcho, NoOracle> = Simulation::new(
            vec![0; crate::ids::ProcessSet::CAPACITY + 1],
            CrashPlan::none(),
        );
    }

    #[test]
    fn capacity_sized_system_is_accepted() {
        let sim: Simulation<MinEcho, NoOracle> =
            Simulation::new(vec![0; crate::ids::ProcessSet::CAPACITY], CrashPlan::none());
        assert_eq!(sim.n(), crate::ids::ProcessSet::CAPACITY);
    }

    #[test]
    fn oversized_system_is_a_typed_error_on_try_new() {
        let cap = crate::ids::ProcessSet::CAPACITY;
        let err = Simulation::<MinEcho, NoOracle>::try_new(vec![0; cap + 1], CrashPlan::none())
            .unwrap_err();
        assert_eq!(err.requested(), cap + 1);
        assert_eq!(err.capacity(), cap);
        assert!(
            Simulation::<MinEcho, NoOracle>::try_new(vec![0; cap], CrashPlan::none()).is_ok(),
            "exactly-at-capacity systems construct"
        );
    }

    #[test]
    fn invalid_process_is_an_error() {
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1], CrashPlan::none());
        let err = sim.step(ProcessId::new(5), Delivery::All).unwrap_err();
        assert_eq!(err, SimError::InvalidProcess(ProcessId::new(5)));
    }

    #[test]
    fn trace_records_steps_and_decisions() {
        let report = run_min_echo(vec![4, 4], CrashPlan::none());
        assert!(report.trace.step_count() > 0);
        let decisions = report.trace.decisions();
        assert_eq!(decisions, vec![Some(4), Some(4)]);
        assert_eq!(report.distinct_decisions.len(), 1);
    }

    #[test]
    fn time_advances_one_per_step() {
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        assert_eq!(sim.time(), Time::ZERO);
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        assert_eq!(sim.time(), Time::new(1));
        sim.step(ProcessId::new(1), Delivery::None).unwrap();
        assert_eq!(sim.time(), Time::new(2));
    }

    /// A misbehaving process that decides a different value every step.
    #[derive(Debug, Clone, Hash)]
    struct FlipFlop {
        step: u64,
    }

    impl Process for FlipFlop {
        type Msg = u8;
        type Input = ();
        type Output = u64;
        type Fd = ();

        fn init(_info: ProcessInfo, _input: ()) -> Self {
            FlipFlop { step: 0 }
        }

        fn step(
            &mut self,
            _delivered: &[Envelope<u8>],
            _fd: Option<&()>,
            effects: &mut Effects<u8, u64>,
        ) {
            self.step += 1;
            effects.decide(self.step);
        }
    }

    #[test]
    fn double_decision_is_recorded_not_fatal() {
        let mut sim: Simulation<FlipFlop, NoOracle> = Simulation::new(vec![()], CrashPlan::none());
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        let report = sim.report(StopReason::SchedulerDone);
        // First decision wins; each later conflicting decide is recorded.
        assert_eq!(report.decisions, vec![Some(1)]);
        assert_eq!(report.violations.len(), 2);
        assert!(matches!(
            report.violations[0],
            Violation::DoubleDecision { time, .. } if time == Time::new(2)
        ));
    }

    #[test]
    fn config_fingerprint_tracks_configuration() {
        let mut a: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        let b: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        assert_eq!(
            a.config_fingerprint(),
            b.config_fingerprint(),
            "equal initials"
        );
        a.step(ProcessId::new(0), Delivery::None).unwrap();
        assert_ne!(a.config_fingerprint(), b.config_fingerprint(), "diverged");
        // Order-insensitive confluence: stepping p1 then p2 with no
        // deliveries equals stepping p2 then p1 (states and buffers agree).
        let mut x: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        let mut y: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        x.step(ProcessId::new(0), Delivery::None).unwrap();
        x.step(ProcessId::new(1), Delivery::None).unwrap();
        y.step(ProcessId::new(1), Delivery::None).unwrap();
        y.step(ProcessId::new(0), Delivery::None).unwrap();
        assert_eq!(x.config_fingerprint(), y.config_fingerprint());
    }

    #[test]
    fn cloned_simulation_diverges_independently() {
        let mut a: Simulation<MinEcho, NoOracle> =
            Simulation::new(vec![1, 2, 3], CrashPlan::none());
        a.step(ProcessId::new(0), Delivery::None).unwrap();
        let mut b = a.clone();
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        b.step(ProcessId::new(1), Delivery::All).unwrap();
        assert_ne!(a.config_fingerprint(), b.config_fingerprint());
        assert_eq!(a.time(), Time::new(1));
        assert_eq!(b.time(), Time::new(2));
    }

    #[test]
    fn sim_engine_matches_direct_run() {
        // The Engine-driven execution must be step-for-step identical to
        // Simulation::run under the same scheduler.
        let mut direct: Simulation<MinEcho, NoOracle> =
            Simulation::new(vec![5, 3, 9], CrashPlan::none());
        let status = direct.run(&mut crate::sched::round_robin::RoundRobin::new(), 10_000);

        let sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![5, 3, 9], CrashPlan::none());
        let mut engine = SimEngine::new(sim, crate::sched::round_robin::RoundRobin::new());
        let engine_status = engine.drive(10_000);

        assert_eq!(status, engine_status);
        assert_eq!(engine.units(), status.steps);
        assert_eq!(Engine::n(&engine), 3);
        assert!(engine.done());
        assert_eq!(engine.decisions(), direct.decisions().to_vec());
        assert_eq!(engine.distinct_decisions().len(), 1);
        let report = engine.report(engine_status.stop);
        assert_eq!(report.decisions, direct.report(status.stop).decisions);
        assert_eq!(
            engine.into_simulation().config_fingerprint(),
            direct.config_fingerprint()
        );
    }

    #[test]
    fn sim_engine_reports_scheduler_exhaustion() {
        let sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        // A scheduler with no moves at all.
        let empty = |_: &SimView<'_, u64>| -> Option<Choice> { None };
        let mut engine = SimEngine::new(sim, empty);
        let status = engine.drive(100);
        assert_eq!(status.stop, StopReason::SchedulerDone);
        assert_eq!(status.steps, 0);
        assert!(!engine.done());
    }

    /// A process that sends one message past the end of the system.
    #[derive(Debug, Clone, Hash)]
    struct SendsOutOfRange;

    impl Process for SendsOutOfRange {
        type Msg = u8;
        type Input = ();
        type Output = u8;
        type Fd = ();

        fn init(_info: ProcessInfo, _input: ()) -> Self {
            SendsOutOfRange
        }

        fn step(
            &mut self,
            _delivered: &[Envelope<u8>],
            _fd: Option<&()>,
            effects: &mut Effects<u8, u8>,
        ) {
            effects.send(ProcessId::new(9), 1); // no such process
            effects.send(ProcessId::new(0), 2); // in range
        }
    }

    #[test]
    fn out_of_range_send_is_recorded_as_dropped() {
        // Regression: sends to destinations outside the system were
        // discarded but recorded with `dropped: false`, so traces claimed a
        // delivery that never happened.
        let mut sim: Simulation<SendsOutOfRange, NoOracle> =
            Simulation::new(vec![(), ()], CrashPlan::none());
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        let step = match &sim.trace().events()[0] {
            TraceEvent::Step(s) => s,
            other => panic!("expected a step record, got {other:?}"),
        };
        assert_eq!(step.sent.len(), 2, "both sends are recorded");
        let oob = &step.sent[0];
        assert_eq!(oob.dst, ProcessId::new(9));
        assert!(oob.dropped, "an undeliverable send must be marked dropped");
        let ok = &step.sent[1];
        assert_eq!(ok.dst, ProcessId::new(0));
        assert!(!ok.dropped);
        // The in-range message really is buffered; nothing else is.
        assert_eq!(sim.buffer(ProcessId::new(0)).len(), 1);
        assert_eq!(sim.buffer(ProcessId::new(1)).len(), 0);
    }

    #[test]
    fn external_trace_recorder_reproduces_internal_trace() {
        // The engine's own trace is one Observer impl fed from the same
        // event stream as any external observer — so an externally
        // attached TraceRecorder must assemble the *identical* trace,
        // crash events, drop flags and fingerprints included.
        let plan = CrashPlan::initially_dead([ProcessId::new(2)]).with_crash_after(
            ProcessId::new(0),
            2,
            Omission::All,
        );
        let sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![5, 3, 9, 7], plan);
        let mut engine = SimEngine::new(sim, crate::sched::round_robin::RoundRobin::new());
        let mut external = TraceRecorder::new(4);
        engine.drive_observed(500, &mut external);
        assert_eq!(
            external.trace().events(),
            engine.simulation().trace().events()
        );
        assert_eq!(
            external.trace().failure_pattern(),
            *engine.simulation().failure_pattern()
        );
    }

    #[test]
    fn drive_observed_matches_drive_and_emits_halt() {
        let sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![5, 3, 9], CrashPlan::none());
        let mut plain = SimEngine::new(sim.clone(), crate::sched::round_robin::RoundRobin::new());
        let plain_status = plain.drive(10_000);

        let mut observed = SimEngine::new(sim, crate::sched::round_robin::RoundRobin::new());
        let mut counter: crate::observe::EventCounter<u64> = crate::observe::EventCounter::new();
        let observed_status = observed.drive_observed(10_000, &mut counter);

        assert_eq!(plain_status, observed_status);
        assert_eq!(plain.decisions(), observed.decisions());
        let counts = counter.counts();
        assert_eq!(counts.halts, 1);
        assert_eq!(counts.steps, observed_status.steps);
        assert_eq!(counts.decides, 3);
        assert_eq!(counts.fd_samples, counts.steps, "one sample per step");
        assert_eq!(
            counts.transmitted(),
            counts.delivers,
            "a crash-free run delivers every transmitted message"
        );
        assert_eq!(
            counter.decisions_by_process().values().copied().min(),
            Some(3)
        );
    }

    #[test]
    fn initially_dead_crashes_are_announced_to_late_observers() {
        // Initial deaths happen at construction, before any observer can
        // attach; drive_observed replays them so the observer still sees
        // the full failure pattern.
        let plan = CrashPlan::initially_dead([ProcessId::new(0), ProcessId::new(2)]);
        let sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2, 3], plan);
        let mut engine = SimEngine::new(sim, crate::sched::round_robin::RoundRobin::new());
        let mut counter: crate::observe::EventCounter<u64> = crate::observe::EventCounter::new();
        engine.drive_observed(50, &mut counter);
        assert_eq!(counter.counts().crashes, 2);
    }

    #[test]
    fn delivery_variants_consume_expected_messages() {
        let mut sim: Simulation<MinEcho, NoOracle> =
            Simulation::new(vec![1, 2, 3], CrashPlan::none());
        // Everyone broadcasts in their first step.
        for p in ProcessId::all(3) {
            sim.step(p, Delivery::None).unwrap();
        }
        assert_eq!(sim.buffer(ProcessId::new(0)).len(), 3);
        // Deliver only p2's message to p1.
        sim.step(
            ProcessId::new(0),
            Delivery::AllFrom([ProcessId::new(1)].into()),
        )
        .unwrap();
        assert_eq!(sim.buffer(ProcessId::new(0)).len(), 2);
        // Deliver oldest 1 from p3.
        sim.step(
            ProcessId::new(0),
            Delivery::OldestPerSource(vec![(ProcessId::new(2), 1)]),
        )
        .unwrap();
        assert_eq!(sim.buffer(ProcessId::new(0)).len(), 1);
    }
}
