//! [`DesEngine`]: the discrete-event engine over a [`Simulation`].
//!
//! This file is an *observer home*: it is the one place (beside
//! `engine.rs` and `kset-core`'s `sync.rs`) allowed to call the raw step
//! drivers — every process step still flows through
//! [`Simulation::step_observed`], so the unified event stream is emitted
//! here and nowhere rebuilt.

use super::component::{Action, Component, CrashSchedule, DetectorCadence, LinkFabric, ProcClock};
use super::heap::EventHeap;
use super::{ComponentId, Latency, VirtualTime};
use crate::engine::{Engine, RunReport, SimEngine, Simulation, StopReason};
use crate::ids::{MsgId, ProcessId, ProcessSet};
use crate::observe::{
    CrashEvent, DecideEvent, DeliverEvent, FdSampleEvent, HaltEvent, NoObserver, Observer,
    RoundEvent, SendEvent, StepEvent,
};
use crate::oracle::Oracle;
use crate::process::Process;
use crate::scenario::{ScenarioError, ScenarioScheduler};
use crate::sched::Delivery;

/// Observer combinator: forwards every event to `inner` unchanged while
/// recording the step's *transmitted* sends (destination and message id)
/// for the engine to route through the latency model. Dropped sends are
/// forwarded but never routed — they reached no buffer.
struct SendTap<'a, Ob: ?Sized> {
    sends: &'a mut Vec<(ProcessId, MsgId)>,
    inner: &'a mut Ob,
}

impl<V, Ob: Observer<V> + ?Sized> Observer<V> for SendTap<'_, Ob> {
    fn on_send(&mut self, event: &SendEvent) {
        if !event.dropped {
            if let Some(id) = event.id {
                self.sends.push((event.dst, id));
            }
        }
        self.inner.on_send(event);
    }

    fn on_deliver(&mut self, event: &DeliverEvent) {
        self.inner.on_deliver(event);
    }

    fn on_fd_sample(&mut self, event: &FdSampleEvent) {
        self.inner.on_fd_sample(event);
    }

    fn on_step(&mut self, event: &StepEvent) {
        self.inner.on_step(event);
    }

    fn on_round(&mut self, event: &RoundEvent) {
        self.inner.on_round(event);
    }

    fn on_crash(&mut self, event: &CrashEvent) {
        self.inner.on_crash(event);
    }

    fn on_decide(&mut self, event: &DecideEvent<V>) {
        self.inner.on_decide(event);
    }

    fn on_halt(&mut self, event: &HaltEvent) {
        self.inner.on_halt(event);
    }
}

/// The two kinds of run behind one [`DesEngine`].
#[derive(Debug)]
enum Mode<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
{
    /// A unit schedule family: the step engine itself.
    Unit(SimEngine<P, O, ScenarioScheduler>),
    /// Arrival-driven execution with real delivery times.
    Timed(Timed<P, O>),
}

/// The timed component registry: per-process clocks, the link fabric, the
/// crash schedule, the optional detector cadence, and the
/// released-but-unread message ids per process.
#[derive(Debug)]
struct Components {
    latency: Latency,
    gst: u64,
    seed: u64,
    procs: Vec<ProcClock>,
    fabric: LinkFabric,
    crashes: CrashSchedule,
    cadence: Option<DetectorCadence>,
    /// Message ids released by the fabric, awaiting the destination's
    /// next step.
    ready: Vec<Vec<MsgId>>,
    /// Timed crashes that have already struck.
    struck: ProcessSet,
    /// Initially dead ∪ every scheduled timed crash — the processes
    /// [`Engine::done`] does not wait for (mirroring how the step
    /// substrate counts plan-scheduled crashes out from the start).
    faulty: ProcessSet,
}

impl Components {
    fn component_mut(&mut self, cid: ComponentId) -> Option<&mut dyn Component> {
        let n = self.procs.len();
        let i = cid.index();
        Some(match i {
            _ if i < n => &mut self.procs[i],
            _ if i == n => &mut self.fabric,
            _ if i == n + 1 => &mut self.crashes,
            _ if i == n + 2 => self.cadence.as_mut()?,
            _ => return None,
        })
    }
}

/// A timed run: the simulation, the event heap of component wake-ups and
/// the virtual clock.
#[derive(Debug)]
struct Timed<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
{
    sim: Simulation<P, O>,
    heap: EventHeap,
    now: VirtualTime,
    units: u64,
    primed: bool,
    scratch: Vec<Action>,
    parts: Box<Components>,
}

/// The discrete-event virtual-time substrate: a [`Simulation`] driven by
/// an event heap of component wake-ups instead of a unit scheduler.
///
/// See the [module docs](super) for the architecture and the two kinds of
/// run. Like [`SimEngine`] it implements [`Engine`], so
/// `drive`/`drive_observed` and every runner work unchanged; a *unit* is
/// one process step in both (bookkeeping ticks — fabric releases, crash
/// strikes, cadence pulses — are free, which is exactly the idle-skip
/// advantage on sparse schedules).
///
/// # Examples
///
/// ```
/// use kset_sim::des::{DesEngine, Latency};
/// # use kset_sim::{CrashPlan, Effects, Envelope, Process, ProcessInfo};
/// use kset_sim::{Engine, Simulation, StopReason};
/// # #[derive(Debug, Clone, Hash)]
/// # struct Echo(u32);
/// # impl Process for Echo {
/// #     type Msg = u32;
/// #     type Input = u32;
/// #     type Output = u32;
/// #     type Fd = ();
/// #     fn init(_info: ProcessInfo, input: u32) -> Self { Echo(input) }
/// #     fn step(&mut self, _d: &[Envelope<u32>], _fd: Option<&()>, e: &mut Effects<u32, u32>) {
/// #         e.decide(self.0);
/// #     }
/// # }
///
/// let sim: Simulation<Echo, _> = Simulation::new(vec![7, 7], CrashPlan::none());
/// let mut engine = DesEngine::timed(sim, Latency::uniform(1, 4), 0, 42)?;
/// let status = engine.drive(100);
/// assert_eq!(status.stop, StopReason::AllCorrectDecided);
/// assert_eq!(engine.distinct_decisions().len(), 1);
/// # Ok::<(), kset_sim::ScenarioError>(())
/// ```
#[derive(Debug)]
pub struct DesEngine<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
{
    mode: Mode<P, O>,
}

impl<P, O> DesEngine<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
{
    /// A unit-family run: `engine` itself, behind the discrete-event type.
    /// [`Scenario::to_des`](crate::Scenario::to_des) builds it from
    /// [`Scenario::to_sim`](crate::Scenario::to_sim).
    pub(crate) fn unit(engine: SimEngine<P, O, ScenarioScheduler>) -> Self {
        DesEngine {
            mode: Mode::Unit(engine),
        }
    }

    /// Arrival-driven timed execution: messages take
    /// `max(send, gst) + draw` ticks, with `draw` the seeded per-link
    /// [`Latency::draw`]. Alive processes take their first step at `t = 1`
    /// (in process order) and afterwards wake exactly when messages
    /// arrive (plus any [`DesEngine::with_detector_cadence`] pulses).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BadSchedule`] when `latency` is not well-formed
    /// (`1 ≤ lo ≤ hi`); see [`Latency::is_well_formed`] for why
    /// zero-latency links are ruled out.
    pub fn timed(
        sim: Simulation<P, O>,
        latency: Latency,
        gst: u64,
        seed: u64,
    ) -> Result<Self, ScenarioError> {
        if !latency.is_well_formed() {
            return Err(ScenarioError::BadSchedule {
                reason: "latency model must satisfy 1 ≤ lo ≤ hi",
            });
        }
        let n = sim.n();
        let faulty = sim.crash_plan().initially_dead_set();
        Ok(DesEngine {
            mode: Mode::Timed(Timed {
                sim,
                heap: EventHeap::new(),
                now: VirtualTime::ZERO,
                units: 0,
                primed: false,
                scratch: Vec::new(),
                parts: Box::new(Components {
                    latency,
                    gst,
                    seed,
                    procs: (0..n)
                        .map(|i| ProcClock::new(ComponentId::new(i), ProcessId::new(i)))
                        .collect(),
                    fabric: LinkFabric::new(ComponentId::new(n)),
                    crashes: CrashSchedule::new(ComponentId::new(n + 1)),
                    cadence: None,
                    ready: vec![Vec::new(); n],
                    struck: ProcessSet::new(),
                    faulty,
                }),
            }),
        })
    }

    /// Schedules a timed crash: `pid` takes no step at or after `at`
    /// (crash-stop — its earlier sends still arrive). Same-instant ties
    /// resolve crash-first. No-op in a unit run (unit schedules crash
    /// through the [`CrashPlan`](crate::CrashPlan)) and for out-of-range
    /// pids.
    pub fn schedule_crash(&mut self, pid: ProcessId, at: VirtualTime) {
        if let Mode::Timed(t) = &mut self.mode {
            if pid.index() < t.sim.n() {
                t.parts.crashes.schedule(at, pid);
                t.parts.faulty.insert(pid);
                t.heap.push(at, t.parts.crashes.id());
            }
        }
    }

    /// Builder form of [`DesEngine::schedule_crash`].
    #[must_use]
    pub fn with_crash_at(mut self, pid: ProcessId, at: VirtualTime) -> Self {
        self.schedule_crash(pid, at);
        self
    }

    /// Enables the failure-detector cadence: every `period` ticks
    /// (normalized to ≥ 1), every alive undecided process is woken for a
    /// detector-sampling step even if no message arrived. No-op in a unit
    /// run.
    #[must_use]
    pub fn with_detector_cadence(mut self, period: u64) -> Self {
        if let Mode::Timed(t) = &mut self.mode {
            let n = t.parts.procs.len();
            let cadence = DetectorCadence::new(ComponentId::new(n + 2), period);
            if t.primed {
                if let Some(at) = cadence.next_tick() {
                    t.heap.push(at, cadence.id());
                }
            }
            t.parts.cadence = Some(cadence);
        }
        self
    }

    /// Read access to the wrapped simulation.
    pub fn simulation(&self) -> &Simulation<P, O> {
        match &self.mode {
            Mode::Unit(engine) => engine.simulation(),
            Mode::Timed(t) => &t.sim,
        }
    }

    /// Unwraps the engine back into the simulation.
    pub fn into_simulation(self) -> Simulation<P, O> {
        match self.mode {
            Mode::Unit(engine) => engine.into_simulation(),
            Mode::Timed(t) => t.sim,
        }
    }

    /// The current virtual-clock reading: the time of the last executed
    /// tick in a timed run, the unit count in a unit run.
    pub fn now(&self) -> VirtualTime {
        match &self.mode {
            Mode::Unit(engine) => VirtualTime::new(engine.units()),
            Mode::Timed(t) => t.now,
        }
    }

    /// The full run report of the wrapped simulation (trace included).
    ///
    /// Timed crashes are scheduling state of *this* engine, not of the
    /// simulation's crash plan, so they appear in the event stream (as
    /// crash events) but not in the report's failure pattern.
    pub fn report(&self, stop: StopReason) -> RunReport<P::Output> {
        self.simulation().report(stop)
    }

    /// Drives to completion and returns the report — the [`Engine`]
    /// counterpart of [`Simulation::run_to_report`].
    pub fn drive_to_report(&mut self, max_units: u64) -> RunReport<P::Output> {
        let status = self.drive(max_units);
        self.report(status.stop)
    }

    /// The engine that runs this instance's units.
    fn inner(&self) -> &dyn Engine<Output = P::Output> {
        match &self.mode {
            Mode::Unit(engine) => engine,
            Mode::Timed(t) => t,
        }
    }

    /// Mutable form of [`DesEngine::inner`].
    fn inner_mut(&mut self) -> &mut dyn Engine<Output = P::Output> {
        match &mut self.mode {
            Mode::Unit(engine) => engine,
            Mode::Timed(t) => t,
        }
    }
}

impl<P, O> Timed<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
{
    /// Seeds the heap before the first tick: crash strikes first (so they
    /// win same-instant ties), then the cadence, then one wake per alive
    /// process at `t = 1` in process order — the sequence-number order the
    /// first wave pops in.
    fn prime(&mut self) {
        self.primed = true;
        let parts = &mut self.parts;
        if let Some(at) = parts.crashes.next_tick() {
            self.heap.push(at, parts.crashes.id());
        }
        if let Some(cadence) = &parts.cadence {
            if let Some(at) = cadence.next_tick() {
                self.heap.push(at, cadence.id());
            }
        }
        let at = VirtualTime::new(1);
        for i in 0..parts.procs.len() {
            if self.sim.is_alive(ProcessId::new(i)) {
                parts.procs[i].wake_at(at);
                self.heap.push(at, parts.procs[i].id());
            }
        }
    }

    /// Pops heap entries until one tick yields a process step. Stale
    /// entries (popped time ≠ the component's `next_tick`) are lazily
    /// skipped; bookkeeping ticks (fabric releases, crash strikes,
    /// cadence pulses) are processed inline without counting as units.
    /// Returns `false` when the heap drains — the substrate is out of
    /// moves.
    fn dispatch_with<Ob>(&mut self, obs: &mut Ob) -> bool
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        if !self.primed {
            self.prime();
        }
        loop {
            let Some((now, _seq, cid)) = self.heap.pop() else {
                return false;
            };
            let mut actions = std::mem::take(&mut self.scratch);
            actions.clear();
            let ticked = match self.parts.component_mut(cid) {
                Some(comp) if comp.next_tick() == Some(now) => {
                    comp.tick(now, &mut actions);
                    // Requeue the component's own next wake; external
                    // wakes push their own entries at cause time.
                    if let Some(next) = comp.next_tick() {
                        self.heap.push(next, cid);
                    }
                    true
                }
                // Stale or unknown entry: lazy deletion.
                _ => false,
            };
            let stepped = if ticked {
                self.now = now;
                self.apply(now, &mut actions, obs)
            } else {
                false
            };
            self.scratch = actions;
            if stepped {
                return true;
            }
        }
    }

    /// Applies one tick's actions; returns whether a process step was
    /// executed.
    fn apply<Ob>(&mut self, now: VirtualTime, actions: &mut Vec<Action>, obs: &mut Ob) -> bool
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        let tm = &mut self.parts;
        let mut stepped = false;
        for action in actions.drain(..) {
            match action {
                Action::StepProcess(pid) => {
                    if tm.struck.contains(pid) || !self.sim.is_alive(pid) {
                        continue;
                    }
                    let ids = std::mem::take(&mut tm.ready[pid.index()]);
                    let mut sends: Vec<(ProcessId, MsgId)> = Vec::new();
                    let ok = {
                        let mut tap = SendTap {
                            sends: &mut sends,
                            inner: obs,
                        };
                        self.sim
                            .step_observed(pid, Delivery::Ids(ids), &mut tap)
                            .is_ok()
                    };
                    if ok {
                        stepped = true;
                        for (dst, id) in sends {
                            // The adversary parks pre-GST messages until
                            // stabilization, then the link draws its delay.
                            let depart = now.raw().max(tm.gst);
                            let delay = tm.latency.draw(tm.seed, pid, dst, id.raw());
                            let at = VirtualTime::new(depart).plus(delay);
                            tm.fabric.route(at, dst, id);
                            self.heap.push(at, tm.fabric.id());
                        }
                    }
                }
                Action::Deliver { dst, id } => {
                    // A message reaching a crashed process vanishes.
                    if tm.struck.contains(dst) || !self.sim.is_alive(dst) {
                        continue;
                    }
                    tm.ready[dst.index()].push(id);
                    if tm.procs[dst.index()].wake_at(now) {
                        self.heap.push(now, tm.procs[dst.index()].id());
                    }
                }
                Action::Crash(pid) => {
                    if tm.struck.contains(pid) || !self.sim.is_alive(pid) {
                        continue;
                    }
                    tm.struck.insert(pid);
                    tm.ready[pid.index()].clear();
                    tm.procs[pid.index()].retire();
                    obs.on_crash(&CrashEvent {
                        pid,
                        time: self.sim.time(),
                        after_step: true,
                    });
                }
                Action::Pulse => {
                    let mut woke = false;
                    for i in 0..tm.procs.len() {
                        let pid = ProcessId::new(i);
                        if tm.struck.contains(pid)
                            || !self.sim.is_alive(pid)
                            || self.sim.decision(pid).is_some()
                        {
                            continue;
                        }
                        if tm.procs[i].wake_at(now) {
                            self.heap.push(now, tm.procs[i].id());
                        }
                        woke = true;
                    }
                    if !woke {
                        // Nobody left to sample: let the heap drain. The
                        // alive-undecided set only shrinks, so this is
                        // final.
                        if let Some(cadence) = tm.cadence.as_mut() {
                            cadence.retire();
                        }
                    }
                }
            }
        }
        stepped
    }
}

impl<P, O> Engine for Timed<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
{
    type Output = P::Output;

    fn n(&self) -> usize {
        self.sim.n()
    }

    fn advance_observed(&mut self, obs: &mut dyn Observer<P::Output>) -> bool {
        let progressed = if obs.observes_events() {
            self.dispatch_with(obs)
        } else {
            self.dispatch_with(&mut NoObserver)
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
        ProcessId::all(self.sim.n())
            .filter(|p| !self.parts.faulty.contains(*p))
            .all(|p| self.sim.decision(p).is_some())
    }

    fn units(&self) -> u64 {
        self.units
    }

    fn decisions(&self) -> Vec<Option<P::Output>> {
        self.sim.decisions().to_vec()
    }
}

/// Every method forwards to the engine of this instance's kind of run, so
/// a unit run drives, counts and observes exactly as its [`SimEngine`].
impl<P, O> Engine for DesEngine<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
{
    type Output = P::Output;

    fn n(&self) -> usize {
        self.inner().n()
    }

    fn advance_observed(&mut self, obs: &mut dyn Observer<P::Output>) -> bool {
        self.inner_mut().advance_observed(obs)
    }

    fn announce_initial(&self, obs: &mut dyn Observer<P::Output>) {
        self.inner().announce_initial(obs);
    }

    fn done(&self) -> bool {
        self.inner().done()
    }

    fn units(&self) -> u64 {
        self.inner().units()
    }

    fn decisions(&self) -> Vec<Option<P::Output>> {
        self.inner().decisions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::CrashPlan;
    use crate::ids::Time;
    use crate::observe::EventCounter;
    use crate::process::{Effects, ProcessInfo};
    use crate::sched::round_robin::RoundRobin;
    use crate::Envelope;
    use std::collections::BTreeSet;

    /// Broadcasts its input on the first step, then decides the minimum
    /// once it has seen values from all `n` processes.
    #[derive(Debug, Clone, Hash)]
    struct MinFlood {
        n: usize,
        seen: BTreeSet<u32>,
        sent: bool,
    }

    impl Process for MinFlood {
        type Msg = u32;
        type Input = u32;
        type Output = u32;
        type Fd = ();

        fn init(info: ProcessInfo, input: u32) -> Self {
            MinFlood {
                n: info.n,
                seen: BTreeSet::from([input]),
                sent: false,
            }
        }

        fn step(
            &mut self,
            delivered: &[Envelope<u32>],
            _fd: Option<&()>,
            effects: &mut Effects<u32, u32>,
        ) {
            if !self.sent {
                self.sent = true;
                let mine = *self.seen.iter().next().unwrap();
                effects.broadcast(mine);
            }
            self.seen.extend(delivered.iter().map(|e| e.payload));
            if self.seen.len() >= self.n {
                effects.decide(*self.seen.iter().next().unwrap());
            }
        }
    }

    fn inputs(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| i * 10 + 3).collect()
    }

    #[test]
    fn unit_mode_forwards_to_the_step_engine() {
        let n = 5;
        let plan = CrashPlan::none().with_crash_after(
            ProcessId::new(1),
            2,
            crate::failure::Omission::KeepOnlyTo(ProcessSet::new()),
        );
        let engine = || {
            let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), plan.clone());
            SimEngine::new(sim, ScenarioScheduler::LockStep(RoundRobin::new()))
        };
        let mut reference = engine();
        // Timed-only builders are no-ops on a unit run.
        let mut des = DesEngine::unit(engine())
            .with_crash_at(ProcessId::new(0), VirtualTime::new(1))
            .with_detector_cadence(3);
        let mut ref_counter: EventCounter<u32> = EventCounter::new();
        let mut des_counter: EventCounter<u32> = EventCounter::new();
        let ref_status = reference.drive_observed(10_000, &mut ref_counter);
        let des_status = des.drive_observed(10_000, &mut des_counter);
        assert_eq!(ref_status, des_status);
        assert_eq!(ref_counter.counts(), des_counter.counts());
        assert_eq!(reference.decisions(), des.decisions());
        assert_eq!(reference.units(), des.units());
        assert_eq!(des.now(), VirtualTime::new(des.units()), "unit clock");
        let ref_report = reference.report(ref_status.stop);
        let des_report = des.report(des_status.stop);
        assert_eq!(ref_report.steps, des_report.steps);
        assert_eq!(ref_report.trace.schedule(), des_report.trace.schedule());
    }

    #[test]
    fn ill_formed_latency_is_a_typed_error() {
        let sim = || -> Simulation<MinFlood, _> { Simulation::new(inputs(3), CrashPlan::none()) };
        for latency in [Latency::uniform(5, 2), Latency::fixed(0)] {
            assert!(
                matches!(
                    DesEngine::timed(sim(), latency, 0, 1),
                    Err(ScenarioError::BadSchedule { .. })
                ),
                "{latency} must be rejected, not rewritten"
            );
        }
        assert!(DesEngine::timed(sim(), Latency::fixed(1), 0, 1).is_ok());
    }

    #[test]
    fn timed_mode_decides_and_skips_idle_time() {
        let n = 6;
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
        let mut engine =
            DesEngine::timed(sim, Latency::uniform(10, 1_000), 0, 7).expect("well-formed latency");
        let status = engine.drive(10_000);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
        assert_eq!(engine.distinct_decisions().len(), 1);
        // Arrival-driven: the unit count is bounded by steps actually
        // needed (first wave + at most one step per arrival — broadcast
        // includes self, so n·n arrivals), never by the huge latency span
        // the virtual clock jumped over.
        assert!(
            engine.units() <= (n * (n + 1)) as u64,
            "sparse schedule must not burn idle units: {}",
            engine.units()
        );
        assert!(
            engine.now() >= VirtualTime::new(10),
            "virtual time advanced past the minimum latency"
        );
    }

    #[test]
    fn fixed_latency_crash_free_runs_walk_the_round_cadence() {
        let n = 4;
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
        let mut engine =
            DesEngine::timed(sim, Latency::fixed(5), 0, 1).expect("well-formed latency");
        let status = engine.drive(10_000);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
        // All round-1 broadcasts are sent at t=1 and arrive together at
        // t=6; every process then steps once with its full inbox and
        // decides: exactly two steps per process.
        assert_eq!(engine.units(), 2 * n as u64);
        assert_eq!(engine.now(), VirtualTime::new(6));
    }

    #[test]
    fn timed_crash_stops_steps_but_earlier_sends_still_arrive() {
        let n = 4;
        let victim = ProcessId::new(0);
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
        // The victim broadcasts at t=1 and is struck at t=2 — before any
        // arrival (lo = 5) can wake it again.
        let mut engine = DesEngine::timed(sim, Latency::fixed(5), 0, 3)
            .expect("well-formed latency")
            .with_crash_at(victim, VirtualTime::new(2));
        let mut counter: EventCounter<u32> = EventCounter::new();
        let status = engine.drive_observed(10_000, &mut counter);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
        let decisions = engine.decisions();
        assert!(decisions[0].is_none(), "the victim crashed undecided");
        assert!(
            decisions[1..].iter().all(|d| d.is_some()),
            "the victim's t=1 broadcast still reached everyone: {decisions:?}"
        );
        assert_eq!(counter.counts().crashes, 1, "the strike is observable");
        assert_eq!(counter.counts().decides, (n - 1) as u64);
    }

    #[test]
    fn same_instant_crash_beats_the_first_step() {
        let n = 3;
        let victim = ProcessId::new(2);
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
        let mut engine = DesEngine::timed(sim, Latency::fixed(2), 0, 3)
            .expect("well-formed latency")
            .with_crash_at(victim, VirtualTime::new(1));
        let status = engine.drive(10_000);
        // The victim never broadcast, so nobody collects n values.
        assert_eq!(status.stop, StopReason::SchedulerDone);
        assert!(engine.decisions().iter().all(|d| d.is_none()));
        assert!(
            engine
                .simulation()
                .trace()
                .schedule()
                .iter()
                .all(|e| e.pid != victim),
            "a same-instant crash must precede the victim's first step"
        );
    }

    #[test]
    fn gst_parks_early_sends_until_stabilization() {
        let n = 3;
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
        let mut engine =
            DesEngine::timed(sim, Latency::fixed(1), 50, 9).expect("well-formed latency");
        let status = engine.drive(10_000);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
        // t=1 broadcasts are parked until GST: arrivals at 50 + 1.
        assert_eq!(engine.now(), VirtualTime::new(51));
    }

    #[test]
    fn detector_cadence_wakes_quiet_processes_and_retires() {
        /// Never sends; decides after three detector samples.
        #[derive(Debug, Clone, Hash)]
        struct Quiet(u64);
        impl Process for Quiet {
            type Msg = u32;
            type Input = u32;
            type Output = u32;
            type Fd = ();
            fn init(_info: ProcessInfo, _input: u32) -> Self {
                Quiet(0)
            }
            fn step(
                &mut self,
                _d: &[Envelope<u32>],
                _fd: Option<&()>,
                effects: &mut Effects<u32, u32>,
            ) {
                self.0 += 1;
                if self.0 >= 3 {
                    effects.decide(1);
                }
            }
        }
        let sim: Simulation<Quiet, _> = Simulation::new(vec![0, 0], CrashPlan::none());
        let mut engine = DesEngine::timed(sim, Latency::fixed(1), 0, 5)
            .expect("well-formed latency")
            .with_detector_cadence(4);
        let status = engine.drive(1_000);
        assert_eq!(
            status.stop,
            StopReason::AllCorrectDecided,
            "without arrivals only the cadence provides liveness"
        );
        // Step 1 at t=1, then pulses at t=4 and t=8.
        assert_eq!(engine.now(), VirtualTime::new(8));
        // After everyone decided the cadence retires and the heap drains.
        assert!(
            !engine.advance_observed(&mut NoObserver),
            "a drained heap is out of moves"
        );
    }

    #[test]
    fn initially_dead_processes_never_wake() {
        let n = 4;
        let sim: Simulation<MinFlood, _> =
            Simulation::new(inputs(n), CrashPlan::initially_dead([ProcessId::new(3)]));
        let mut engine =
            DesEngine::timed(sim, Latency::fixed(2), 0, 11).expect("well-formed latency");
        let status = engine.drive(10_000);
        // Three broadcasts only: nobody sees 4 values, nobody decides —
        // and the dead process takes no step at all.
        assert_eq!(status.stop, StopReason::SchedulerDone);
        assert!(engine
            .simulation()
            .trace()
            .schedule()
            .iter()
            .all(|e| e.pid.index() != 3));
    }

    #[test]
    fn announce_initial_replays_initial_deaths() {
        let sim: Simulation<MinFlood, _> =
            Simulation::new(inputs(3), CrashPlan::initially_dead([ProcessId::new(1)]));
        let mut engine =
            DesEngine::timed(sim, Latency::fixed(1), 0, 0).expect("well-formed latency");
        let mut counter: EventCounter<u32> = EventCounter::new();
        engine.drive_observed(100, &mut counter);
        assert_eq!(counter.counts().crashes, 1);
        assert_eq!(counter.counts().halts, 1);
        assert_eq!(counter.counts().steps, engine.units());
    }

    #[test]
    fn report_time_is_step_time_not_virtual_time() {
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(3), CrashPlan::none());
        let mut engine =
            DesEngine::timed(sim, Latency::uniform(100, 200), 0, 2).expect("well-formed latency");
        let status = engine.drive(1_000);
        let report = engine.report(status.stop);
        assert_eq!(report.steps, engine.units());
        assert_eq!(engine.simulation().time(), Time::new(report.steps));
        assert!(engine.now().raw() >= 100, "virtual clock outran step time");
    }
}
