//! Seeded per-link latency models: real delivery times for messages.

use crate::ids::ProcessId;

/// A per-link message latency model: every delivery delay is drawn
/// uniformly from `lo..=hi` virtual-time ticks by a stateless seeded hash
/// of `(seed, src, dst, nonce)`.
///
/// Statelessness is the point: the delay of message `m` on link
/// `src → dst` depends only on the run seed and the message's identity,
/// never on draw order — so a run's arrival times are reproducible from
/// its [`Scenario`](crate::Scenario) line alone, and two engines routing
/// the same messages agree on every delay.
///
/// `lo` must be at least 1 (a zero-latency link would admit unbounded
/// same-instant send→deliver→send cascades — Zeno runs the virtual clock
/// could never get past); [`DesEngine::timed`](super::DesEngine::timed)
/// and [`Scenario::validate`](crate::Scenario::validate) reject violating
/// models with a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Latency {
    /// Minimum delivery delay, in virtual-time ticks (≥ 1).
    pub lo: u64,
    /// Maximum delivery delay, in virtual-time ticks (≥ `lo`).
    pub hi: u64,
}

impl Latency {
    /// A fixed-delay link: every message takes exactly `delay` ticks.
    ///
    /// With `gst = 0` this is the synchronous-bounded model: all messages
    /// of one send wave arrive together, and an arrival-driven run walks
    /// the exact lock-step round cadence.
    pub const fn fixed(delay: u64) -> Self {
        Latency {
            lo: delay,
            hi: delay,
        }
    }

    /// A uniform-delay link: delays drawn from `lo..=hi`.
    pub const fn uniform(lo: u64, hi: u64) -> Self {
        Latency { lo, hi }
    }

    /// Whether the model is well-formed: `1 ≤ lo ≤ hi`.
    pub const fn is_well_formed(self) -> bool {
        self.lo >= 1 && self.lo <= self.hi
    }

    /// Draws the delivery delay of one message: a deterministic function
    /// of `(seed, src, dst, nonce)` mapped into `lo..=hi`.
    ///
    /// `nonce` is the message's per-run identity (the engine uses the raw
    /// message id); distinct messages on the same link draw independently.
    pub fn draw(self, seed: u64, src: ProcessId, dst: ProcessId, nonce: u64) -> u64 {
        if self.lo >= self.hi {
            return self.lo;
        }
        // SplitMix64 finalizer over the link-and-message identity; the
        // odd-constant multipliers keep (src, dst, nonce) permutations
        // from colliding.
        let mut z = seed
            .wrapping_add((src.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((dst.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(nonce.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // span = hi - lo + 1 cannot overflow here: lo < hi implies
        // hi - lo >= 1 and hi - lo <= u64::MAX - 1.
        self.lo + z % (self.hi - self.lo + 1)
    }
}

impl std::fmt::Display for Latency {
    /// Renders the scenario-line form, `lo..hi`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_in_range() {
        let lat = Latency::uniform(3, 17);
        for nonce in 0..500u64 {
            let d = lat.draw(42, ProcessId::new(1), ProcessId::new(2), nonce);
            assert_eq!(
                d,
                lat.draw(42, ProcessId::new(1), ProcessId::new(2), nonce),
                "same identity, same draw"
            );
            assert!((3..=17).contains(&d), "draw {d} out of 3..=17");
        }
    }

    #[test]
    fn draws_depend_on_every_identity_component() {
        let lat = Latency::uniform(0, u64::MAX - 1);
        let base = lat.draw(1, ProcessId::new(2), ProcessId::new(3), 4);
        assert_ne!(base, lat.draw(9, ProcessId::new(2), ProcessId::new(3), 4));
        assert_ne!(base, lat.draw(1, ProcessId::new(7), ProcessId::new(3), 4));
        assert_ne!(base, lat.draw(1, ProcessId::new(2), ProcessId::new(8), 4));
        assert_ne!(base, lat.draw(1, ProcessId::new(2), ProcessId::new(3), 5));
        // Swapping src and dst changes the link.
        assert_ne!(base, lat.draw(1, ProcessId::new(3), ProcessId::new(2), 4));
    }

    #[test]
    fn fixed_links_always_draw_the_delay() {
        let lat = Latency::fixed(6);
        for nonce in 0..50u64 {
            assert_eq!(
                lat.draw(nonce, ProcessId::new(0), ProcessId::new(1), nonce),
                6
            );
        }
    }

    #[test]
    fn well_formedness_and_display() {
        assert!(Latency::fixed(1).is_well_formed());
        assert!(Latency::uniform(2, 9).is_well_formed());
        assert!(!Latency::fixed(0).is_well_formed());
        assert!(!Latency::uniform(5, 2).is_well_formed());
        assert_eq!(Latency::uniform(2, 9).to_string(), "2..9");
    }
}
