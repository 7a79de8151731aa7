//! Declarative scenarios: one description, three substrates.
//!
//! The workspace runs the paper's model through three substrates — the
//! step-level [`Simulation`], the round-level lock-step executor of
//! `kset-core`, and the discrete-event engine
//! ([`DesEngine`]) — unified behind the
//! [`Engine`](crate::Engine) trait. A
//! [`Scenario`] is the declarative layer above them: it names a model point
//! (system size `n`, failure budget `f`, agreement degree `k`), the
//! proposal values, a *round-oriented crash plan*, a schedule family and a
//! failure-detector choice, and **compiles** to any substrate:
//!
//! * [`Scenario::to_sim`] builds a [`SimEngine`] — the crash description
//!   becomes a [`CrashPlan`] whose final-step send omission
//!   ([`Omission::KeepOnlyTo`]) reproduces the round-level "mid-round
//!   partial delivery", and the schedule family becomes a concrete
//!   scheduler ([`ScenarioScheduler`]).
//! * `kset-core`'s scenario adapters compile the *same* value to a
//!   `LockStep` round executor (each [`ScenarioCrash`] becomes a
//!   `RoundCrash` verbatim; initially-dead processes become round-1 crashes
//!   with no receivers).
//! * [`Scenario::to_des`] builds a [`DesEngine`]:
//!   the [`ScheduleFamily::Timed`] family compiles natively (latency
//!   draws, GST, virtual-time crash strikes), and every *other* family is
//!   the `to_sim` engine itself behind the discrete-event type.
//!
//! Because both projections derive from one description, the two substrates
//! can be *differentially tested*: under the synchronous
//! [`ScheduleFamily::LockStepRounds`] family the compiled simulation is
//! step-for-step equivalent to the round executor, and the harness in
//! `kset-core::scenario::differential` asserts it. Under an asynchronous
//! family the equivalence intentionally breaks — that divergence is the
//! paper's border made executable.
//!
//! The algorithm is *not* part of the scenario value: a scenario compiles
//! for any [`ScenarioProcess`] (step-level) or `ScenarioRounds`
//! (round-level) implementation, so the same `(n, f, k)` point can be run
//! under FloodMin, the two-stage protocol, or any future algorithm.

use std::fmt;

use crate::des::{DesEngine, Latency, VirtualTime};
use crate::engine::{SimEngine, Simulation};
use crate::failure::{CrashPlan, Omission};
use crate::ids::{CapacityError, ProcessId, ProcessSet};
use crate::oracle::NoOracle;
use crate::process::Process;
use crate::sched::partition::{PartitionScheduler, ReleasePolicy};
use crate::sched::random::SeededRandom;
use crate::sched::round_robin::RoundRobin;
use crate::sched::{Choice, Scheduler, SimView};
use crate::sweep::{cell_seed, GridCell};

/// One crash in a scenario, described in *round* terms: in round `round`
/// (1-based), `pid` delivers its round message only to `receivers` and then
/// crashes.
///
/// The two substrates realize this description differently but
/// equivalently:
///
/// * round-level — a `RoundCrash` verbatim (mid-round partial delivery);
/// * step-level — [`CrashPlan::with_crash_after`]`(pid, round,`
///   [`Omission::KeepOnlyTo`]`(receivers))`: under the lock-step schedule
///   family a process's `round`-th local step is exactly the step that
///   broadcasts its round-`round` message, so the final-step send omission
///   drops precisely the messages the round executor never delivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioCrash {
    /// The crashing process.
    pub pid: ProcessId,
    /// The round in which the crash strikes (1-based).
    pub round: usize,
    /// The receivers that still get the final round message.
    pub receivers: ProcessSet,
}

/// The schedule family a scenario runs under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleFamily {
    /// The synchronous projection: fair round-robin with eager delivery.
    /// This is the family under which the step-level compilation is
    /// equivalent to the lock-step round executor.
    LockStepRounds,
    /// Reproducible asynchrony: seeded random process choice and per-source
    /// random delivery. Differential equivalence is *not* expected here —
    /// the report flags divergences instead.
    Async {
        /// RNG seed (typically the grid cell's [`cell_seed`]).
        seed: u64,
        /// Per-source delivery probability in percent (0–100).
        deliver_percent: u8,
        /// Starvation bound: every alive process steps at least once every
        /// this many scheduler picks.
        fairness_window: u64,
    },
    /// The partitioning adversary: cross-block messages are delayed until
    /// every process decided.
    Partitioned {
        /// The pairwise-disjoint partition blocks.
        blocks: Vec<ProcessSet>,
    },
    /// The timed family: the discrete-event substrate with real delivery
    /// times. Messages take `max(send, gst) + draw` virtual-time ticks,
    /// with `draw` a seeded per-link draw from the latency model; before
    /// the GST the delay-bounded adversary parks every message.
    ///
    /// This family compiles only with [`Scenario::to_des`] —
    /// [`Scenario::to_sim`] rejects it with a typed
    /// [`ScenarioError::BadSchedule`], since no unit scheduler expresses
    /// arrival-driven execution. Crash entries are reinterpreted: `round`
    /// is the *virtual time* of an adversary strike (crash-stop, so
    /// `receivers` must be empty — earlier sends still arrive on their
    /// own schedule).
    Timed {
        /// Per-link delivery-delay model (must satisfy `1 ≤ lo ≤ hi`).
        latency: Latency,
        /// Global stabilization time; `0` means synchronous-bounded from
        /// the start.
        gst: u64,
        /// Seed of the per-link latency draws.
        seed: u64,
    },
}

/// Which failure detector the scenario equips processes with.
///
/// The simulator stays agnostic about detector classes; this enum only
/// *names* the choice. `kset-fd` maps each variant to a concrete oracle
/// (`kset_fd::select`), and [`Scenario::to_sim`] serves the
/// detector-free case directly (all current differential algorithms have
/// `Fd = ()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorChoice {
    /// No failure detector (dimension 6 unfavourable).
    None,
    /// The perfect detector P (suspect exactly the crashed).
    Perfect,
    /// The pair (Σk, Ωk) with eventual stabilization time `tgst`.
    SigmaOmega {
        /// The detector degree `k`.
        k: usize,
        /// Global stabilization time of the Ωk component.
        tgst: u64,
    },
    /// The loneliness detector L.
    Loneliness,
}

/// Errors raised when validating or compiling a [`Scenario`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The system size exceeds the bitset capacity.
    Capacity(CapacityError),
    /// `inputs.len()` does not match `n`.
    InputCount {
        /// System size the scenario declares.
        n: usize,
        /// Number of proposal values provided.
        inputs: usize,
    },
    /// The failure budget or agreement degree is infeasible (`f ≥ n`,
    /// `k < 1`, or `k > n`).
    Infeasible {
        /// System size.
        n: usize,
        /// Failure budget.
        f: usize,
        /// Agreement degree.
        k: usize,
    },
    /// A process is named by two crash entries (or is both initially dead
    /// and crash-scheduled).
    DuplicateCrash(ProcessId),
    /// A crash round lies outside `1..=rounds`.
    RoundOutOfRange {
        /// The offending crash round.
        round: usize,
        /// The scenario's scheduled round count.
        rounds: usize,
    },
    /// More processes fail than the budget `f` allows.
    TooManyFaulty {
        /// Processes that fail under the crash description.
        faulty: usize,
        /// The declared budget.
        f: usize,
    },
    /// A crash (initial or scheduled) names a process outside `0..n` — it
    /// would silently affect nothing on either substrate.
    CrashOutOfRange {
        /// The named process.
        pid: ProcessId,
        /// System size.
        n: usize,
    },
    /// The schedule family carries parameters its scheduler rejects
    /// (delivery probability over 100%, a zero fairness window, or
    /// overlapping partition blocks).
    BadSchedule {
        /// What the scheduler would reject.
        reason: &'static str,
    },
    /// The detector choice's degree is outside `1..=n`.
    DetectorDegree {
        /// The requested degree.
        k: usize,
        /// System size.
        n: usize,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Capacity(e) => write!(f, "system size {e}"),
            ScenarioError::InputCount { n, inputs } => {
                write!(f, "scenario declares n = {n} but provides {inputs} inputs")
            }
            ScenarioError::Infeasible { n, f: ff, k } => {
                write!(f, "infeasible model point: n = {n}, f = {ff}, k = {k}")
            }
            ScenarioError::DuplicateCrash(p) => write!(f, "process {p} crashes twice"),
            ScenarioError::RoundOutOfRange { round, rounds } => {
                write!(f, "crash round {round} outside 1..={rounds}")
            }
            ScenarioError::TooManyFaulty { faulty, f: ff } => {
                write!(f, "{faulty} processes fail but the budget is f = {ff}")
            }
            ScenarioError::CrashOutOfRange { pid, n } => {
                write!(f, "crash names {pid} but the system has n = {n} processes")
            }
            ScenarioError::BadSchedule { reason } => {
                write!(f, "schedule family rejected: {reason}")
            }
            ScenarioError::DetectorDegree { k, n } => {
                write!(f, "detector degree k = {k} outside 1..={n}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<CapacityError> for ScenarioError {
    fn from(e: CapacityError) -> Self {
        ScenarioError::Capacity(e)
    }
}

/// A step-level algorithm that can be instantiated from a [`Scenario`].
///
/// The trait decouples the scenario value (which lives in this crate) from
/// the algorithms (which live in `kset-core`): an implementation maps the
/// scenario's proposal values and model point to the algorithm's concrete
/// input type — e.g. the two-stage protocol derives its waiting threshold
/// `L = n − f` from the scenario, and round-based algorithms wrap
/// themselves in `kset-core`'s `RoundAdapter`.
pub trait ScenarioProcess: Process<Fd = ()> {
    /// Builds the per-process inputs of this algorithm for `scenario`.
    ///
    /// Must return exactly `scenario.n` inputs; [`Scenario::to_sim`]
    /// validates the scenario before calling this.
    fn scenario_inputs(scenario: &Scenario) -> Vec<Self::Input>;
}

/// A declarative scenario: model point, proposals, crash description,
/// schedule family, detector choice, and budgets.
///
/// Construct with [`Scenario::favourable`] (lock-step schedule, no crashes)
/// or [`Scenario::from_cell`] (seed-derived crash layout for sweep grids),
/// then refine with the builder methods.
///
/// # Examples
///
/// ```
/// use kset_sim::scenario::{Scenario, ScenarioCrash, ScheduleFamily};
/// use kset_sim::{ProcessId, ProcessSet};
///
/// let sc = Scenario::favourable(4, 1, 1).with_crash(ScenarioCrash {
///     pid: ProcessId::new(0),
///     round: 1,
///     receivers: [ProcessId::new(1)].into(),
/// });
/// assert!(sc.validate().is_ok());
/// assert_eq!(sc.rounds, 2); // ⌊f/k⌋ + 1
/// assert_eq!(sc.schedule, ScheduleFamily::LockStepRounds);
/// let plan = sc.crash_plan();
/// assert_eq!(plan.num_faulty(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// System size `n`.
    pub n: usize,
    /// Failure budget `f` (the crash description may use fewer).
    pub f: usize,
    /// Agreement degree `k` (k-set agreement).
    pub k: usize,
    /// Per-process proposal values.
    pub inputs: Vec<u64>,
    /// Scheduled synchronous rounds (defaults to `⌊f/k⌋ + 1`, the FloodMin
    /// round count for the model point).
    pub rounds: usize,
    /// Processes dead from the start.
    pub initially_dead: ProcessSet,
    /// Mid-run crashes in round terms.
    pub crashes: Vec<ScenarioCrash>,
    /// The schedule family.
    pub schedule: ScheduleFamily,
    /// The failure-detector choice.
    pub detector: DetectorChoice,
    /// Step budget for the compiled step-level engine.
    pub max_units: u64,
}

impl Scenario {
    /// A favourable-side scenario at `(n, f, k)`: distinct proposals
    /// `0..n`, `⌊f/k⌋ + 1` rounds, the lock-step schedule family, no
    /// detector, and no crashes yet.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (the round count `⌊f/k⌋ + 1` is undefined).
    pub fn favourable(n: usize, f: usize, k: usize) -> Self {
        assert!(k >= 1, "k-set agreement needs k ≥ 1");
        let rounds = f / k + 1;
        Scenario {
            n,
            f,
            k,
            inputs: (0..n as u64).collect(),
            rounds,
            initially_dead: ProcessSet::new(),
            crashes: Vec::new(),
            schedule: ScheduleFamily::LockStepRounds,
            detector: DetectorChoice::None,
            max_units: Self::default_max_units(n, rounds),
        }
    }

    /// Maps a sweep [`GridCell`] to a concrete scenario: the cell's
    /// deterministic seed fixes a crash layout (up to `f` crashes on
    /// distinct processes, spread over the rounds, each reaching a
    /// seed-derived prefix of receivers), so "cell 17 of grid 42" is the
    /// same scenario on every machine — the contract [`cell_seed`]
    /// established for bare `(n, f, k)` tuples now carries whole scenarios.
    pub fn from_cell(cell: &GridCell) -> Self {
        let mut sc = Scenario::favourable(cell.n, cell.f, cell.k);
        let base = (cell.seed as usize) % cell.n;
        for j in 0..cell.f {
            let h = cell_seed(cell.seed, j);
            let receivers: ProcessSet = ProcessId::all((h as usize) % (cell.n + 1)).collect();
            sc.crashes.push(ScenarioCrash {
                pid: ProcessId::new((base + j) % cell.n),
                round: 1 + j % sc.rounds,
                receivers,
            });
        }
        sc
    }

    fn default_max_units(n: usize, rounds: usize) -> u64 {
        // Lock-step needs n·(rounds + 1) steps; async families re-pick
        // processes randomly, so leave generous headroom.
        (n as u64) * (rounds as u64 + 2) * 8 + 64
    }

    /// Replaces the proposal values. Returns `self` for chaining.
    #[must_use]
    pub fn with_inputs(mut self, inputs: Vec<u64>) -> Self {
        self.inputs = inputs;
        self
    }

    /// Adds a round-crash. Returns `self` for chaining.
    #[must_use]
    pub fn with_crash(mut self, crash: ScenarioCrash) -> Self {
        self.crashes.push(crash);
        self
    }

    /// Marks a process dead from the start. Returns `self` for chaining.
    #[must_use]
    pub fn with_initially_dead(mut self, p: ProcessId) -> Self {
        self.initially_dead.insert(p);
        self
    }

    /// Sets the schedule family. Returns `self` for chaining.
    #[must_use]
    pub fn with_schedule(mut self, schedule: ScheduleFamily) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the detector choice. Returns `self` for chaining.
    #[must_use]
    pub fn with_detector(mut self, detector: DetectorChoice) -> Self {
        self.detector = detector;
        self
    }

    /// Overrides the scheduled round count (and rescales the step budget).
    /// Returns `self` for chaining.
    #[must_use]
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self.max_units = Self::default_max_units(self.n, rounds);
        self
    }

    /// Overrides the step budget of the compiled engine. Returns `self`
    /// for chaining.
    #[must_use]
    pub fn with_max_units(mut self, max_units: u64) -> Self {
        self.max_units = max_units;
        self
    }

    /// Whether this scenario runs under the synchronous lock-step family —
    /// the precondition for step-level/round-level equivalence.
    pub fn is_lock_step(&self) -> bool {
        self.schedule == ScheduleFamily::LockStepRounds
    }

    /// The set of processes that fail under this scenario's crash
    /// description (initially dead or round-crashed).
    pub fn faulty(&self) -> ProcessSet {
        let mut f = self.initially_dead;
        f.extend(self.crashes.iter().map(|c| c.pid));
        f
    }

    /// Checks the scenario's internal consistency.
    ///
    /// # Errors
    ///
    /// See [`ScenarioError`] for each rejected shape.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.n > ProcessSet::CAPACITY {
            return Err(CapacityError::new(self.n, ProcessSet::CAPACITY).into());
        }
        if self.f >= self.n || self.k < 1 || self.k > self.n {
            return Err(ScenarioError::Infeasible {
                n: self.n,
                f: self.f,
                k: self.k,
            });
        }
        if self.inputs.len() != self.n {
            return Err(ScenarioError::InputCount {
                n: self.n,
                inputs: self.inputs.len(),
            });
        }
        let mut seen = ProcessSet::new();
        for pid in self
            .initially_dead
            .iter()
            .chain(self.crashes.iter().map(|c| c.pid))
        {
            if pid.index() >= self.n {
                return Err(ScenarioError::CrashOutOfRange { pid, n: self.n });
            }
            if !seen.insert(pid) {
                return Err(ScenarioError::DuplicateCrash(pid));
            }
        }
        let timed = matches!(self.schedule, ScheduleFamily::Timed { .. });
        for c in &self.crashes {
            // Under the timed family `round` is a virtual time, not an
            // index into the scheduled rounds — only `≥ 1` applies.
            if c.round < 1 || (!timed && c.round > self.rounds) {
                return Err(ScenarioError::RoundOutOfRange {
                    round: c.round,
                    rounds: self.rounds,
                });
            }
            if timed && !c.receivers.is_empty() {
                return Err(ScenarioError::BadSchedule {
                    reason: "timed crashes are crash-stop and cannot name receivers",
                });
            }
        }
        if seen.len() > self.f {
            return Err(ScenarioError::TooManyFaulty {
                faulty: seen.len(),
                f: self.f,
            });
        }
        match &self.schedule {
            ScheduleFamily::LockStepRounds => {}
            ScheduleFamily::Async {
                deliver_percent,
                fairness_window,
                ..
            } => {
                if *deliver_percent > 100 {
                    return Err(ScenarioError::BadSchedule {
                        reason: "delivery probability over 100%",
                    });
                }
                if *fairness_window == 0 {
                    return Err(ScenarioError::BadSchedule {
                        reason: "fairness window must be positive",
                    });
                }
            }
            ScheduleFamily::Partitioned { blocks } => {
                let mut members = ProcessSet::new();
                for block in blocks {
                    for p in block {
                        if p.index() >= self.n {
                            return Err(ScenarioError::BadSchedule {
                                reason: "partition block names a process outside the system",
                            });
                        }
                        if !members.insert(p) {
                            return Err(ScenarioError::BadSchedule {
                                reason: "partition blocks must be pairwise disjoint",
                            });
                        }
                    }
                }
            }
            ScheduleFamily::Timed { latency, .. } => {
                if !latency.is_well_formed() {
                    return Err(ScenarioError::BadSchedule {
                        reason: "latency model must satisfy 1 ≤ lo ≤ hi",
                    });
                }
            }
        }
        match self.detector {
            DetectorChoice::SigmaOmega { k, .. } if k < 1 || k > self.n => {
                Err(ScenarioError::DetectorDegree { k, n: self.n })
            }
            _ => Ok(()),
        }
    }

    /// The step-level projection of the crash description: each
    /// [`ScenarioCrash`] becomes a crash after `round` local steps with
    /// [`Omission::KeepOnlyTo`]`(receivers)` — under the lock-step family a
    /// process's `round`-th step broadcasts its round-`round` message, so
    /// this reproduces the round executor's mid-round partial delivery.
    pub fn crash_plan(&self) -> CrashPlan {
        let mut plan = CrashPlan::initially_dead(self.initially_dead);
        for c in &self.crashes {
            plan = plan.with_crash_after(c.pid, c.round as u64, Omission::KeepOnlyTo(c.receivers));
        }
        plan
    }

    /// Builds the unit scheduler of this scenario's schedule family.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BadSchedule`] for [`ScheduleFamily::Timed`] — the
    /// timed family is arrival-driven, no unit scheduler expresses it;
    /// compile with [`Scenario::to_des`] instead.
    pub fn scheduler(&self) -> Result<ScenarioScheduler, ScenarioError> {
        match &self.schedule {
            ScheduleFamily::LockStepRounds => Ok(ScenarioScheduler::LockStep(RoundRobin::new())),
            ScheduleFamily::Async {
                seed,
                deliver_percent,
                fairness_window,
            } => Ok(ScenarioScheduler::Async(
                SeededRandom::new(*seed)
                    .with_deliver_percent(*deliver_percent)
                    .with_fairness_window(*fairness_window),
            )),
            ScheduleFamily::Partitioned { blocks } => Ok(ScenarioScheduler::Partitioned(
                PartitionScheduler::new(blocks.clone(), ReleasePolicy::AfterAllDecided),
            )),
            ScheduleFamily::Timed { .. } => Err(ScenarioError::BadSchedule {
                reason: "the timed family has no unit scheduler; compile with to_des",
            }),
        }
    }

    /// Compiles the scenario to a bare step-level [`Simulation`] (no
    /// scheduler attached) — the form the exhaustive explorer consumes; see
    /// [`crate::explore::explore_scenario`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] of [`Scenario::validate`].
    pub fn to_simulation<P: ScenarioProcess>(
        &self,
    ) -> Result<Simulation<P, NoOracle>, ScenarioError> {
        self.validate()?;
        Ok(Simulation::try_new(
            P::scenario_inputs(self),
            self.crash_plan(),
        )?)
    }

    /// Compiles the scenario to the step-level substrate: a [`SimEngine`]
    /// pairing the simulation with the schedule family's scheduler. The
    /// round-level compiler (`to_lockstep`) lives in `kset-core`'s scenario
    /// adapters, next to the round executor it targets.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] of [`Scenario::validate`].
    pub fn to_sim<P: ScenarioProcess>(
        &self,
    ) -> Result<SimEngine<P, NoOracle, ScenarioScheduler>, ScenarioError> {
        // Validation (inside to_simulation) must precede scheduler
        // construction: the schedulers assert their parameters, and the
        // error contract promises a typed ScenarioError instead.
        let sim = self.to_simulation::<P>()?;
        Ok(SimEngine::new(sim, self.scheduler()?))
    }

    /// Compiles the scenario to the discrete-event substrate — defined for
    /// **every** schedule family:
    ///
    /// * [`ScheduleFamily::Timed`] compiles natively: initially-dead
    ///   processes enter the simulation's crash plan, every
    ///   [`ScenarioCrash`] becomes a virtual-time adversary strike
    ///   ([`DesEngine::schedule_crash`] at `t = round`), and a non-`None`
    ///   detector choice enables the sampling cadence at the latency lower
    ///   bound (the fastest the modelled network can change).
    /// * Every other family is a unit run: the [`Scenario::to_sim`] engine
    ///   itself behind the [`DesEngine`] type, so decisions, units and the
    ///   event stream are the step substrate's by construction.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] of [`Scenario::validate`].
    pub fn to_des<P: ScenarioProcess>(&self) -> Result<DesEngine<P, NoOracle>, ScenarioError> {
        let ScheduleFamily::Timed { latency, gst, seed } = &self.schedule else {
            return self.to_sim::<P>().map(DesEngine::unit);
        };
        self.validate()?;
        let sim = Simulation::try_new(
            P::scenario_inputs(self),
            CrashPlan::initially_dead(self.initially_dead),
        )?;
        let mut engine = DesEngine::timed(sim, *latency, *gst, *seed)?;
        for c in &self.crashes {
            engine.schedule_crash(c.pid, VirtualTime::new(c.round as u64));
        }
        if self.detector != DetectorChoice::None {
            engine = engine.with_detector_cadence(latency.lo);
        }
        Ok(engine)
    }
}

// ---------------------------------------------------------------------------
// Plain-text scenario serialization: one line per scenario.
// ---------------------------------------------------------------------------

/// Why a scenario line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioParseError {
    /// The line does not start with the `scenario` keyword.
    NotAScenario,
    /// A required field keyword is missing or out of order.
    MissingField(&'static str),
    /// A field's value token does not parse.
    BadField {
        /// The field being read.
        field: &'static str,
        /// The offending token.
        token: String,
    },
    /// Tokens remain after the last field.
    TrailingTokens(String),
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioParseError::NotAScenario => {
                write!(f, "not a scenario line (expected the `scenario` keyword)")
            }
            ScenarioParseError::MissingField(field) => {
                write!(f, "missing or misplaced field {field:?}")
            }
            ScenarioParseError::BadField { field, token } => {
                write!(f, "field {field:?}: cannot parse {token:?}")
            }
            ScenarioParseError::TrailingTokens(rest) => {
                write!(f, "trailing tokens after the last field: {rest:?}")
            }
        }
    }
}

impl std::error::Error for ScenarioParseError {}

use crate::textfmt::{parse_csv_with, render_csv};

/// Parses a comma-separated list rendered by
/// [`render_csv`](crate::textfmt::render_csv), mapping a malformed
/// element to the typed field error.
fn parse_csv<T>(
    field: &'static str,
    token: &str,
    parse_one: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, ScenarioParseError> {
    parse_csv_with(token, parse_one).ok_or_else(|| ScenarioParseError::BadField {
        field,
        token: token.to_string(),
    })
}

impl Scenario {
    /// Renders the scenario as **one line** of the plain-text scenario
    /// table format — the citable form: an EXPERIMENTS table can name a
    /// scenario by content, not just by `(grid_seed, index)`.
    ///
    /// The grammar is token-delimited with fixed field order; empty lists
    /// render as `-`:
    ///
    /// ```text
    /// scenario n 5 f 3 k 1 rounds 4 inputs 0,1,2,3,4 dead 4 \
    ///   crashes 0@1>1;1@2>2,3 schedule lockstep detector none units 368
    /// ```
    ///
    /// Crashes are `pid@round>receivers`, semicolon-separated; schedules
    /// are `lockstep`, `async:seed,percent,window`,
    /// `partitioned:block|block` (each block a pid csv) or
    /// `timed:lo..hi,gst,seed`; detectors are `none`, `perfect`,
    /// `sigmaomega:k,tgst` or `loneliness`. Unknown schedule or detector
    /// dialects (from newer writers) are rejected with a typed
    /// [`ScenarioParseError::BadField`], never a panic.
    /// [`Scenario::parse_line`] inverts this exactly
    /// (`parse_line(render_line(s)) == s` for every scenario, valid or
    /// not — serialization does not validate; run
    /// [`Scenario::validate`] separately).
    pub fn render_line(&self) -> String {
        // Crash entries contain commas (receiver lists), so the crash
        // list joins with semicolons instead of `render_csv`'s commas.
        let crashes = if self.crashes.is_empty() {
            "-".to_string()
        } else {
            self.crashes
                .iter()
                .map(|c| {
                    format!(
                        "{}@{}>{}",
                        c.pid.index(),
                        c.round,
                        render_csv(c.receivers.iter().map(|p| p.index().to_string()))
                    )
                })
                .collect::<Vec<_>>()
                .join(";")
        };
        let schedule = match &self.schedule {
            ScheduleFamily::LockStepRounds => "lockstep".to_string(),
            ScheduleFamily::Async {
                seed,
                deliver_percent,
                fairness_window,
            } => format!("async:{seed},{deliver_percent},{fairness_window}"),
            ScheduleFamily::Partitioned { blocks } => {
                let rendered: Vec<String> = blocks
                    .iter()
                    .map(|b| render_csv(b.iter().map(|p| p.index().to_string())))
                    .collect();
                if rendered.is_empty() {
                    "partitioned:-".to_string()
                } else {
                    format!("partitioned:{}", rendered.join("|"))
                }
            }
            ScheduleFamily::Timed { latency, gst, seed } => {
                format!("timed:{latency},{gst},{seed}")
            }
        };
        let detector = match self.detector {
            DetectorChoice::None => "none".to_string(),
            DetectorChoice::Perfect => "perfect".to_string(),
            DetectorChoice::SigmaOmega { k, tgst } => format!("sigmaomega:{k},{tgst}"),
            DetectorChoice::Loneliness => "loneliness".to_string(),
        };
        format!(
            "scenario n {} f {} k {} rounds {} inputs {} dead {} crashes {} \
             schedule {} detector {} units {}",
            self.n,
            self.f,
            self.k,
            self.rounds,
            render_csv(self.inputs.iter().map(u64::to_string)),
            render_csv(self.initially_dead.iter().map(|p| p.index().to_string())),
            crashes,
            schedule,
            detector,
            self.max_units,
        )
    }

    /// Parses one line of the scenario table format — the exact inverse
    /// of [`Scenario::render_line`].
    ///
    /// Parsing restores the value without validating it; call
    /// [`Scenario::validate`] on the result before compiling.
    ///
    /// # Errors
    ///
    /// A [`ScenarioParseError`] naming the first offending field.
    ///
    /// # Examples
    ///
    /// ```
    /// use kset_sim::Scenario;
    ///
    /// let sc = Scenario::favourable(4, 1, 1);
    /// let line = sc.render_line();
    /// assert_eq!(Scenario::parse_line(&line), Ok(sc));
    /// ```
    pub fn parse_line(line: &str) -> Result<Self, ScenarioParseError> {
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("scenario") {
            return Err(ScenarioParseError::NotAScenario);
        }
        let mut field = |name: &'static str| -> Result<&str, ScenarioParseError> {
            if tokens.next() != Some(name) {
                return Err(ScenarioParseError::MissingField(name));
            }
            tokens.next().ok_or(ScenarioParseError::MissingField(name))
        };
        fn num<T: std::str::FromStr>(
            field: &'static str,
            token: &str,
        ) -> Result<T, ScenarioParseError> {
            token.parse().map_err(|_| ScenarioParseError::BadField {
                field,
                token: token.to_string(),
            })
        }

        let n: usize = num("n", field("n")?)?;
        let f: usize = num("f", field("f")?)?;
        let k: usize = num("k", field("k")?)?;
        let rounds: usize = num("rounds", field("rounds")?)?;
        let inputs: Vec<u64> = parse_csv("inputs", field("inputs")?, |t| t.parse().ok())?;
        let dead: Vec<usize> = parse_csv("dead", field("dead")?, |t| t.parse().ok())?;

        let crashes_token = field("crashes")?;
        let mut crashes = Vec::new();
        if crashes_token != "-" {
            for entry in crashes_token.split(';') {
                let bad = || ScenarioParseError::BadField {
                    field: "crashes",
                    token: entry.to_string(),
                };
                let (pid_round, receivers) = entry.split_once('>').ok_or_else(bad)?;
                let (pid, round) = pid_round.split_once('@').ok_or_else(bad)?;
                let receivers: Vec<usize> =
                    parse_csv("crashes", receivers, |t| t.parse().ok()).map_err(|_| bad())?;
                crashes.push(ScenarioCrash {
                    pid: ProcessId::new(pid.parse().map_err(|_| bad())?),
                    round: round.parse().map_err(|_| bad())?,
                    receivers: receivers.into_iter().map(ProcessId::new).collect(),
                });
            }
        }

        let schedule_token = field("schedule")?;
        let schedule = match schedule_token.split_once(':') {
            None if schedule_token == "lockstep" => ScheduleFamily::LockStepRounds,
            Some(("async", rest)) => {
                let parts: Vec<&str> = rest.split(',').collect();
                let bad = || ScenarioParseError::BadField {
                    field: "schedule",
                    token: schedule_token.to_string(),
                };
                let [seed, percent, window] = parts[..] else {
                    return Err(bad());
                };
                ScheduleFamily::Async {
                    seed: seed.parse().map_err(|_| bad())?,
                    deliver_percent: percent.parse().map_err(|_| bad())?,
                    fairness_window: window.parse().map_err(|_| bad())?,
                }
            }
            Some(("partitioned", rest)) => {
                let blocks = if rest == "-" {
                    Vec::new()
                } else {
                    rest.split('|')
                        .map(|b| {
                            parse_csv("schedule", b, |t| t.parse::<usize>().ok())
                                .map(|pids| pids.into_iter().map(ProcessId::new).collect())
                        })
                        .collect::<Result<Vec<ProcessSet>, _>>()?
                };
                ScheduleFamily::Partitioned { blocks }
            }
            Some(("timed", rest)) => {
                let bad = || ScenarioParseError::BadField {
                    field: "schedule",
                    token: schedule_token.to_string(),
                };
                let parts: Vec<&str> = rest.split(',').collect();
                let [latency, gst, seed] = parts[..] else {
                    return Err(bad());
                };
                let (lo, hi) = latency.split_once("..").ok_or_else(bad)?;
                ScheduleFamily::Timed {
                    latency: Latency::uniform(
                        lo.parse().map_err(|_| bad())?,
                        hi.parse().map_err(|_| bad())?,
                    ),
                    gst: gst.parse().map_err(|_| bad())?,
                    seed: seed.parse().map_err(|_| bad())?,
                }
            }
            _ => {
                return Err(ScenarioParseError::BadField {
                    field: "schedule",
                    token: schedule_token.to_string(),
                });
            }
        };

        let detector_token = field("detector")?;
        let detector = match detector_token.split_once(':') {
            None if detector_token == "none" => DetectorChoice::None,
            None if detector_token == "perfect" => DetectorChoice::Perfect,
            None if detector_token == "loneliness" => DetectorChoice::Loneliness,
            Some(("sigmaomega", rest)) => {
                let bad = || ScenarioParseError::BadField {
                    field: "detector",
                    token: detector_token.to_string(),
                };
                let (dk, tgst) = rest.split_once(',').ok_or_else(bad)?;
                DetectorChoice::SigmaOmega {
                    k: dk.parse().map_err(|_| bad())?,
                    tgst: tgst.parse().map_err(|_| bad())?,
                }
            }
            _ => {
                return Err(ScenarioParseError::BadField {
                    field: "detector",
                    token: detector_token.to_string(),
                });
            }
        };

        let max_units: u64 = num("units", field("units")?)?;
        let rest: Vec<&str> = tokens.collect();
        if !rest.is_empty() {
            return Err(ScenarioParseError::TrailingTokens(rest.join(" ")));
        }

        Ok(Scenario {
            n,
            f,
            k,
            inputs,
            rounds,
            initially_dead: dead.into_iter().map(ProcessId::new).collect(),
            crashes,
            schedule,
            detector,
            max_units,
        })
    }
}

/// The concrete scheduler a [`ScheduleFamily`] compiles to — an enum rather
/// than a boxed trait object so [`Scenario::to_sim`] returns a fully
/// concrete engine type.
#[derive(Debug, Clone)]
pub enum ScenarioScheduler {
    /// [`ScheduleFamily::LockStepRounds`].
    LockStep(RoundRobin),
    /// [`ScheduleFamily::Async`].
    Async(SeededRandom),
    /// [`ScheduleFamily::Partitioned`].
    Partitioned(PartitionScheduler),
}

impl<M> Scheduler<M> for ScenarioScheduler {
    fn next(&mut self, view: &SimView<'_, M>) -> Option<Choice> {
        match self {
            ScenarioScheduler::LockStep(s) => Scheduler::<M>::next(s, view),
            ScenarioScheduler::Async(s) => Scheduler::<M>::next(s, view),
            ScenarioScheduler::Partitioned(s) => Scheduler::<M>::next(s, view),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Envelope;
    use crate::process::{Effects, ProcessInfo};
    use crate::sweep::scale_grid;
    use crate::Engine;

    /// Minimal scenario-constructible process: decides its own input.
    #[derive(Debug, Clone, Hash)]
    struct Own(u64);

    impl Process for Own {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Fd = ();

        fn init(_info: ProcessInfo, input: u64) -> Self {
            Own(input)
        }

        fn step(
            &mut self,
            _delivered: &[Envelope<u64>],
            _fd: Option<&()>,
            effects: &mut Effects<u64, u64>,
        ) {
            effects.decide(self.0);
        }
    }

    impl ScenarioProcess for Own {
        fn scenario_inputs(scenario: &Scenario) -> Vec<u64> {
            scenario.inputs.clone()
        }
    }

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn favourable_defaults_are_consistent() {
        let sc = Scenario::favourable(6, 3, 2);
        assert_eq!(sc.rounds, 2);
        assert_eq!(sc.inputs, vec![0, 1, 2, 3, 4, 5]);
        assert!(sc.is_lock_step());
        assert!(sc.validate().is_ok());
        assert!(sc.faulty().is_empty());
    }

    #[test]
    fn validation_rejects_malformed_scenarios() {
        let infeasible = Scenario::favourable(4, 4, 1);
        assert!(matches!(
            infeasible.validate(),
            Err(ScenarioError::Infeasible { .. })
        ));

        let bad_inputs = Scenario::favourable(4, 1, 1).with_inputs(vec![1, 2]);
        assert!(matches!(
            bad_inputs.validate(),
            Err(ScenarioError::InputCount { n: 4, inputs: 2 })
        ));

        let crash = |round| ScenarioCrash {
            pid: pid(0),
            round,
            receivers: ProcessSet::new(),
        };
        let dup = Scenario::favourable(4, 2, 1)
            .with_crash(crash(1))
            .with_crash(crash(2));
        assert_eq!(dup.validate(), Err(ScenarioError::DuplicateCrash(pid(0))));

        let oor = Scenario::favourable(4, 1, 1).with_crash(crash(5));
        assert!(matches!(
            oor.validate(),
            Err(ScenarioError::RoundOutOfRange {
                round: 5,
                rounds: 2
            })
        ));

        let over = Scenario::favourable(4, 1, 1)
            .with_initially_dead(pid(1))
            .with_crash(crash(1));
        assert_eq!(
            over.validate(),
            Err(ScenarioError::TooManyFaulty { faulty: 2, f: 1 })
        );

        let oversized = Scenario::favourable(ProcessSet::CAPACITY + 1, 1, 1);
        assert!(matches!(
            oversized.validate(),
            Err(ScenarioError::Capacity(_))
        ));

        // A crash naming a process outside 0..n would silently affect
        // nothing on either substrate — reject it instead.
        let ghost = Scenario::favourable(4, 1, 1).with_crash(ScenarioCrash {
            pid: pid(7),
            round: 1,
            receivers: ProcessSet::new(),
        });
        assert_eq!(
            ghost.validate(),
            Err(ScenarioError::CrashOutOfRange { pid: pid(7), n: 4 })
        );
        let ghost_dead = Scenario::favourable(4, 1, 1).with_initially_dead(pid(4));
        assert_eq!(
            ghost_dead.validate(),
            Err(ScenarioError::CrashOutOfRange { pid: pid(4), n: 4 })
        );
    }

    #[test]
    fn validation_covers_schedule_and_detector_parameters() {
        // to_sim's error contract: malformed family parameters surface as
        // ScenarioError, never as a scheduler-constructor panic.
        let base = Scenario::favourable(4, 1, 1);
        let over_percent = base.clone().with_schedule(ScheduleFamily::Async {
            seed: 1,
            deliver_percent: 150,
            fairness_window: 4,
        });
        assert!(matches!(
            over_percent.validate(),
            Err(ScenarioError::BadSchedule { .. })
        ));
        assert!(over_percent.to_sim::<Own>().is_err());

        let zero_window = base.clone().with_schedule(ScheduleFamily::Async {
            seed: 1,
            deliver_percent: 50,
            fairness_window: 0,
        });
        assert!(matches!(
            zero_window.validate(),
            Err(ScenarioError::BadSchedule { .. })
        ));

        let overlapping = base.clone().with_schedule(ScheduleFamily::Partitioned {
            blocks: vec![[pid(0), pid(1)].into(), [pid(1), pid(2)].into()],
        });
        assert!(matches!(
            overlapping.validate(),
            Err(ScenarioError::BadSchedule { .. })
        ));
        assert!(overlapping.to_sim::<Own>().is_err());

        // A block naming only nonexistent processes would silently leave
        // every real process in a singleton block — reject it instead.
        let ghost_block = base.clone().with_schedule(ScheduleFamily::Partitioned {
            blocks: vec![[pid(8), pid(9)].into()],
        });
        assert!(matches!(
            ghost_block.validate(),
            Err(ScenarioError::BadSchedule { .. })
        ));

        let bad_degree = base.with_detector(DetectorChoice::SigmaOmega { k: 10, tgst: 5 });
        assert_eq!(
            bad_degree.validate(),
            Err(ScenarioError::DetectorDegree { k: 10, n: 4 })
        );
    }

    #[test]
    fn crash_plan_projection_maps_rounds_to_local_steps() {
        let sc = Scenario::favourable(4, 2, 1)
            .with_initially_dead(pid(3))
            .with_crash(ScenarioCrash {
                pid: pid(0),
                round: 2,
                receivers: [pid(1)].into(),
            });
        let plan = sc.crash_plan();
        assert!(plan.is_initially_dead(pid(3)));
        let (steps, om) = plan.crash_for(pid(0)).expect("scheduled");
        assert_eq!(steps, 2);
        assert_eq!(om, &Omission::KeepOnlyTo([pid(1)].into()));
        assert_eq!(sc.faulty(), [pid(0), pid(3)].into());
    }

    #[test]
    fn to_sim_compiles_and_runs() {
        let sc = Scenario::favourable(3, 0, 1);
        let mut engine = sc.to_sim::<Own>().expect("valid scenario");
        let status = engine.drive(sc.max_units);
        assert_eq!(status.stop, crate::StopReason::AllCorrectDecided);
        assert_eq!(engine.decisions(), vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn to_sim_rejects_invalid_scenarios() {
        let sc = Scenario::favourable(4, 1, 1).with_inputs(vec![7]);
        assert!(sc.to_sim::<Own>().is_err());
    }

    #[test]
    fn from_cell_is_deterministic_and_valid() {
        let grid = scale_grid(&[8, 16], &[3], &[1, 2], 42).expect("within capacity");
        for cell in &grid {
            let a = Scenario::from_cell(cell);
            let b = Scenario::from_cell(cell);
            assert_eq!(a, b, "same cell must map to the same scenario");
            a.validate().expect("generated scenarios are valid");
            assert_eq!(a.faulty().len(), cell.f, "exactly f crashing processes");
            assert!(a
                .crashes
                .iter()
                .all(|c| c.round >= 1 && c.round <= a.rounds));
        }
        // Different seeds produce different crash layouts somewhere.
        let other = scale_grid(&[8, 16], &[3], &[1, 2], 43).expect("within capacity");
        assert!(
            grid.iter()
                .zip(&other)
                .any(|(x, y)| Scenario::from_cell(x).crashes != Scenario::from_cell(y).crashes),
            "grid seed must influence the crash layout"
        );
    }

    #[test]
    fn scenario_lines_round_trip() {
        // Every schedule family, detector choice, crash shape and empty
        // list must survive render → parse exactly.
        let scenarios = vec![
            Scenario::favourable(4, 1, 1),
            Scenario::favourable(5, 3, 2)
                .with_initially_dead(pid(4))
                .with_crash(ScenarioCrash {
                    pid: pid(0),
                    round: 1,
                    receivers: [pid(1), pid(3)].into(),
                })
                .with_crash(ScenarioCrash {
                    pid: pid(2),
                    round: 2,
                    receivers: ProcessSet::new(),
                }),
            Scenario::favourable(6, 2, 1)
                .with_schedule(ScheduleFamily::Async {
                    seed: 0xDEAD_BEEF,
                    deliver_percent: 35,
                    fairness_window: 9,
                })
                .with_detector(DetectorChoice::SigmaOmega { k: 2, tgst: 777 })
                .with_inputs(vec![9, 9, 9, 0, 0, 0]),
            Scenario::favourable(5, 1, 1)
                .with_schedule(ScheduleFamily::Partitioned {
                    blocks: vec![[pid(0), pid(1)].into(), [pid(2)].into()],
                })
                .with_detector(DetectorChoice::Perfect),
            Scenario::favourable(3, 1, 2)
                .with_detector(DetectorChoice::Loneliness)
                .with_max_units(123_456),
            Scenario::favourable(5, 2, 1)
                .with_schedule(ScheduleFamily::Timed {
                    latency: Latency::uniform(2, 9),
                    gst: 50,
                    seed: 0xFEED,
                })
                .with_crash(ScenarioCrash {
                    pid: pid(1),
                    round: 7,
                    receivers: ProcessSet::new(),
                }),
        ];
        for sc in scenarios {
            let line = sc.render_line();
            assert!(line.starts_with("scenario n "), "one-line table row");
            assert!(!line.contains('\n'));
            let parsed = Scenario::parse_line(&line)
                .unwrap_or_else(|e| panic!("round-trip of {line:?}: {e}"));
            assert_eq!(parsed, sc, "line {line:?}");
            assert_eq!(parsed.render_line(), line, "re-render is stable");
        }
    }

    #[test]
    fn grid_scenarios_round_trip_by_content() {
        // The citation use case: every scenario a sweep grid generates is
        // recoverable from its table line alone — content, not
        // (grid_seed, index).
        let grid = scale_grid(&[8, 16, 32], &[1, 3], &[1, 2], 42).expect("within capacity");
        for cell in &grid {
            let sc = Scenario::from_cell(cell);
            let parsed = Scenario::parse_line(&sc.render_line()).expect("grid scenarios parse");
            assert_eq!(parsed, sc);
            parsed.validate().expect("parsed scenarios stay valid");
        }
    }

    #[test]
    fn scenario_parse_errors_are_typed() {
        assert_eq!(
            Scenario::parse_line("not a scenario"),
            Err(ScenarioParseError::NotAScenario)
        );
        let good = Scenario::favourable(4, 1, 1).render_line();
        assert_eq!(
            Scenario::parse_line(&good.replace(" f 1 ", " g 1 ")),
            Err(ScenarioParseError::MissingField("f"))
        );
        assert_eq!(
            Scenario::parse_line(&good.replace(" n 4 ", " n four ")),
            Err(ScenarioParseError::BadField {
                field: "n",
                token: "four".to_string()
            })
        );
        assert!(matches!(
            Scenario::parse_line(&good.replace("schedule lockstep", "schedule chaos")),
            Err(ScenarioParseError::BadField {
                field: "schedule",
                ..
            })
        ));
        // Forward compatibility: an unknown dialect from a newer writer —
        // parameterized or not — is a typed rejection, not a panic.
        for unknown in ["schedule quantum:1,2,3", "schedule timed2:4..9,0,1"] {
            assert!(matches!(
                Scenario::parse_line(&good.replace("schedule lockstep", unknown)),
                Err(ScenarioParseError::BadField {
                    field: "schedule",
                    ..
                })
            ));
        }
        // Malformed timed forms: missing parts, missing the `..` range
        // separator, non-numeric tokens.
        for malformed in [
            "schedule timed:2..9,50",
            "schedule timed:9,50,1",
            "schedule timed:a..9,50,1",
            "schedule timed:2..9,50,1,8",
        ] {
            assert!(
                matches!(
                    Scenario::parse_line(&good.replace("schedule lockstep", malformed)),
                    Err(ScenarioParseError::BadField {
                        field: "schedule",
                        ..
                    })
                ),
                "{malformed} must be rejected"
            );
        }
        assert!(matches!(
            Scenario::parse_line(&format!("{good} extra")),
            Err(ScenarioParseError::TrailingTokens(_))
        ));
        // Crash grammar: missing the `>` receiver separator.
        let crashy = Scenario::favourable(4, 1, 1)
            .with_crash(ScenarioCrash {
                pid: pid(0),
                round: 1,
                receivers: [pid(1)].into(),
            })
            .render_line();
        assert!(matches!(
            Scenario::parse_line(&crashy.replace("0@1>1", "0@1")),
            Err(ScenarioParseError::BadField {
                field: "crashes",
                ..
            })
        ));
        // Serialization restores without validating; validation is the
        // caller's separate step.
        let infeasible = Scenario::favourable(4, 1, 1).with_inputs(vec![1]);
        let parsed = Scenario::parse_line(&infeasible.render_line()).expect("parses unvalidated");
        assert!(parsed.validate().is_err());
    }

    #[test]
    fn scheduler_families_compile() {
        let lock = Scenario::favourable(3, 0, 1);
        assert!(matches!(
            lock.scheduler(),
            Ok(ScenarioScheduler::LockStep(_))
        ));

        let async_sc = lock.clone().with_schedule(ScheduleFamily::Async {
            seed: 7,
            deliver_percent: 50,
            fairness_window: 8,
        });
        assert!(matches!(
            async_sc.scheduler(),
            Ok(ScenarioScheduler::Async(_))
        ));
        assert!(!async_sc.is_lock_step());

        let part = lock.clone().with_schedule(ScheduleFamily::Partitioned {
            blocks: vec![[pid(0)].into(), [pid(1), pid(2)].into()],
        });
        assert!(matches!(
            part.scheduler(),
            Ok(ScenarioScheduler::Partitioned(_))
        ));

        // The timed family has no unit scheduler: scheduler() and to_sim
        // reject it with a typed error, to_des compiles it natively.
        let timed = lock.with_schedule(ScheduleFamily::Timed {
            latency: Latency::uniform(1, 3),
            gst: 0,
            seed: 5,
        });
        assert!(matches!(
            timed.scheduler(),
            Err(ScenarioError::BadSchedule { .. })
        ));
        assert!(matches!(
            timed.to_sim::<Own>(),
            Err(ScenarioError::BadSchedule { .. })
        ));
    }

    #[test]
    fn timed_scenarios_validate_their_own_rules() {
        let timed = |latency| {
            Scenario::favourable(4, 1, 1).with_schedule(ScheduleFamily::Timed {
                latency,
                gst: 10,
                seed: 1,
            })
        };
        assert!(timed(Latency::uniform(1, 3)).validate().is_ok());
        // Zero-latency links admit Zeno cascades; inverted bounds are
        // nonsense — both are typed rejections.
        assert!(matches!(
            timed(Latency::fixed(0)).validate(),
            Err(ScenarioError::BadSchedule { .. })
        ));
        assert!(matches!(
            timed(Latency::uniform(5, 2)).validate(),
            Err(ScenarioError::BadSchedule { .. })
        ));
        // Timed crashes are crash-stop: receivers express mid-round
        // partial delivery, which has no timed counterpart.
        let receivers = timed(Latency::fixed(2)).with_crash(ScenarioCrash {
            pid: pid(0),
            round: 1,
            receivers: [pid(1)].into(),
        });
        assert!(matches!(
            receivers.validate(),
            Err(ScenarioError::BadSchedule { .. })
        ));
        // `round` is a virtual time under this family: values beyond the
        // scheduled round count are fine, zero is not.
        let late = timed(Latency::fixed(2)).with_crash(ScenarioCrash {
            pid: pid(0),
            round: 500,
            receivers: ProcessSet::new(),
        });
        assert!(late.validate().is_ok());
        let zero = timed(Latency::fixed(2)).with_crash(ScenarioCrash {
            pid: pid(0),
            round: 0,
            receivers: ProcessSet::new(),
        });
        assert!(matches!(
            zero.validate(),
            Err(ScenarioError::RoundOutOfRange { round: 0, .. })
        ));
    }

    #[test]
    fn to_des_compiles_every_family() {
        // Native timed compilation, crash strike included.
        let timed = Scenario::favourable(4, 1, 1)
            .with_schedule(ScheduleFamily::Timed {
                latency: Latency::uniform(2, 6),
                gst: 0,
                seed: 11,
            })
            .with_crash(ScenarioCrash {
                pid: pid(3),
                round: 1,
                receivers: ProcessSet::new(),
            });
        let mut engine = timed.to_des::<Own>().expect("valid timed scenario");
        let status = engine.drive(timed.max_units);
        assert_eq!(status.stop, crate::StopReason::AllCorrectDecided);
        let decisions = engine.decisions();
        assert_eq!(decisions[0..3], [Some(0), Some(1), Some(2)]);
        assert_eq!(decisions[3], None, "struck at t=1, before its first step");

        // A unit family: the DES engine is the step engine, so a
        // lock-step scenario decides identically on both.
        let lock = Scenario::favourable(3, 0, 1);
        let mut des = lock.to_des::<Own>().expect("valid");
        let mut sim = lock.to_sim::<Own>().expect("valid");
        assert_eq!(
            des.drive(lock.max_units),
            sim.drive(lock.max_units),
            "unit-run drive status matches the step substrate"
        );
        assert_eq!(des.decisions(), sim.decisions());

        // Invalid scenarios are rejected before compilation.
        assert!(Scenario::favourable(4, 1, 1)
            .with_inputs(vec![7])
            .to_des::<Own>()
            .is_err());
    }
}
