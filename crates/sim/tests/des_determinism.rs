//! Determinism of the discrete-event substrate, observed end to end: two
//! timed runs from identical seeds must emit **byte-identical** Observer
//! event streams — same events, same order, same payload fingerprints —
//! while a different latency seed perturbs the stream. (The heap-level
//! half of the claim — same-timestamp events pop in insertion order —
//! lives next to the heap in `des::heap`.)

use std::collections::BTreeSet;

use kset_sim::des::{DesEngine, Latency, VirtualTime};
use kset_sim::observe::{
    CrashEvent, DecideEvent, DeliverEvent, HaltEvent, Observer, SendEvent, StepEvent,
};
use kset_sim::{CrashPlan, Effects, Engine, Envelope, Process, ProcessId, ProcessInfo, Simulation};

/// Broadcasts its input once, then decides the minimum it has seen after
/// hearing from everyone it ever will.
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

/// Renders every observed event into one growing text transcript, so two
/// runs compare as plain bytes.
#[derive(Debug, Default)]
struct Transcript(String);

impl Observer<u32> for Transcript {
    fn on_send(&mut self, e: &SendEvent) {
        self.0.push_str(&format!(
            "send t={} {}->{} id={:?} fp={:?} dropped={}\n",
            e.time, e.src, e.dst, e.id, e.payload_fp, e.dropped
        ));
    }
    fn on_deliver(&mut self, e: &DeliverEvent) {
        self.0.push_str(&format!(
            "deliver t={} {}->{} id={:?} fp={:?}\n",
            e.time, e.src, e.dst, e.id, e.payload_fp
        ));
    }
    fn on_step(&mut self, e: &StepEvent) {
        self.0.push_str(&format!(
            "step t={} {} local={} state={:#x} in={} out={}\n",
            e.time, e.pid, e.local_step, e.state_fp, e.delivered, e.sent
        ));
    }
    fn on_crash(&mut self, e: &CrashEvent) {
        self.0.push_str(&format!(
            "crash t={} {} after_step={}\n",
            e.time, e.pid, e.after_step
        ));
    }
    fn on_decide(&mut self, e: &DecideEvent<u32>) {
        self.0
            .push_str(&format!("decide t={} {} v={}\n", e.time, e.pid, e.value));
    }
    fn on_halt(&mut self, e: &HaltEvent) {
        self.0.push_str(&format!(
            "halt steps={} stop={:?} units={}\n",
            e.status.steps, e.status.stop, e.units
        ));
    }
}

fn inputs(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| i * 7 + 2).collect()
}

/// One observed timed run — jittered latency, a GST window, a mid-run
/// strike and a detector cadence all in play — rendered to text.
fn transcript_of(seed: u64) -> String {
    let n = 6;
    let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
    let mut engine = DesEngine::timed(sim, Latency::uniform(2, 9), 13, seed)
        .expect("well-formed latency")
        .with_crash_at(ProcessId::new(4), VirtualTime::new(20))
        .with_detector_cadence(5);
    let mut obs = Transcript::default();
    engine.drive_observed(10_000, &mut obs);
    assert!(engine.done(), "all non-faulty processes decide");
    obs.0
}

#[test]
fn identical_seeds_yield_byte_identical_event_streams() {
    let first = transcript_of(0xDE5_0001);
    let second = transcript_of(0xDE5_0001);
    assert!(!first.is_empty());
    assert!(first.contains("crash "), "the scheduled strike is observed");
    assert!(first.contains("decide "), "decisions are observed");
    assert_eq!(first, second, "same seed, same bytes");
}

#[test]
fn different_latency_seeds_perturb_the_stream() {
    // Both runs are individually deterministic, so this comparison is
    // stable — and with 2..9 jitter on every link the draws differ.
    let a = transcript_of(0xDE5_0001);
    let b = transcript_of(0xDE5_0002);
    assert_ne!(a, b, "the latency seed reaches the event stream");
}
