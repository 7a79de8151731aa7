//! Observer-bypass fixture: raw engine driving outside the home files.

pub fn drive(sim: &mut Sim) {
    sim.step(0);
    sim.step_observed(0, obs);
}

// `.step(` in a comment must not fire, nor in a string:
pub const S: &str = "sim.step(x)";

pub fn ok(sim: &mut Sim) {
    // kset-lint: allow(observer-bypass): fixture proves suppression works
    sim.execute_round_observed(&mut obs);
}

pub fn not_a_call(step: usize) -> usize {
    step + 1
}

pub fn drive_des(engine: &mut DesEngine) {
    engine.tick(now, &mut actions);
    engine.dispatch_with(&mut obs);
    sim.step_once(&mut sched, &mut obs);
}
