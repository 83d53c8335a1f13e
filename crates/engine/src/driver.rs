//! Round drivers: *why* a process advances into its next round.
//!
//! The engine historically had exactly one timing model — a global
//! schedule handed to every process by a [`crate::Pacer`] ("round `r`
//! begins at `r · δ` for everyone"). That model is lockstep synchrony:
//! correct under the paper's assumptions, but incapable of expressing
//! partial synchrony, clock skew, or quorum-driven progress.
//!
//! A [`RoundDriverConfig`] generalizes the seam. Each process owns one and
//! advances from round `r` to `r + 1` when the **first** of two local
//! events fires:
//!
//! * **Quorum** — deliveries from at least `quorum()` distinct senders
//!   carrying `sent_round ≥ r` have arrived (self-delivery counts). The
//!   process has everything the protocol's quorum logic can use from
//!   round `r`, so waiting out the timer only adds latency.
//! * **Timeout** — the local round timer (the configured δ-estimate)
//!   expires. This is the synchrony fallback, and the only trigger in
//!   silent rounds, where fewer than a quorum of processes send at all —
//!   the common case for the adaptive protocols, whose whole point is
//!   rounds with `O(1)` senders.
//!
//! The pre-refactor behaviour is recovered exactly by
//! [`RoundDriverConfig::Lockstep`]: the deadline is the *global*
//! schedule `r · δ` (not relative to the process's own progress) and no
//! quorum advancement happens, so every existing test keeps its
//! semantics. [`RoundDriverConfig::QuorumOrTimeout`] is the
//! partial-synchrony mode; its `timeout_factor` expresses a *mis-*
//! estimated δ (the E17 sweep runs it from 0.25× to 4× of the true
//! network δ).
//!
//! Safety note (argued in `docs/CORRECTNESS.md` §12): early advancement
//! never forges or drops information. A message sent in round `r`
//! becomes admissible the moment its receiver's round counter exceeds
//! `r` — the `sent_round < round` admission rule of
//! [`crate::run_live_round`] buffers early arrivals and admits late
//! ones, independent of *when* either process's clock said the round
//! happened. Quorum intersection arguments therefore survive unchanged;
//! what degrades under a wrong δ-estimate is performance (help traffic,
//! fallback activation), which is exactly what E17 measures.

/// Why a process advanced into a round. Recorded per advance in
/// `meba_sim::metrics::AdvanceStats` (satellite: surfaced in `Metrics`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvanceCause {
    /// A quorum of distinct prior-round senders had already arrived.
    QuorumReached,
    /// The local round timer fired without quorum.
    TimeoutFired,
}

/// Serializable description of a round driver, carried by
/// [`crate::ClusterConfig`] and [`crate::DesConfig`]. Resolved against
/// `n` and the backend's δ at run start.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RoundDriverConfig {
    /// The pre-refactor model: every process advances exactly at the
    /// global schedule `r · δ` (wall clock or virtual). No quorum
    /// advancement; advance causes are still *recorded* (was quorum
    /// satisfied at the deadline?) but never change the schedule.
    #[default]
    Lockstep,
    /// Event-driven partial synchrony: advance on quorum or local
    /// timeout, whichever fires first.
    QuorumOrTimeout {
        /// Distinct senders (including self) required for early
        /// advancement. `None` resolves to [`default_quorum`]`(n)` =
        /// `n - t` with `t = ⌊(n-1)/2⌋`.
        quorum: Option<usize>,
        /// The δ-estimate as a multiple of the backend's configured δ.
        /// `1.0` is a perfect estimate; `0.5` and `2.0` are the
        /// mis-estimation bounds of the acceptance criteria; the E17
        /// sweep runs 0.25–4.0.
        timeout_factor: f64,
    },
}

impl RoundDriverConfig {
    /// The partial-synchrony driver with defaults: protocol quorum,
    /// perfect δ-estimate.
    pub fn quorum_or_timeout() -> Self {
        RoundDriverConfig::QuorumOrTimeout { quorum: None, timeout_factor: 1.0 }
    }

    /// Whether this is the lockstep (global-schedule) driver.
    pub fn is_lockstep(&self) -> bool {
        matches!(self, RoundDriverConfig::Lockstep)
    }

    /// The effective quorum for cause *recording* and (in
    /// `QuorumOrTimeout` mode) early advancement.
    pub fn effective_quorum(&self, n: usize) -> usize {
        match self {
            RoundDriverConfig::Lockstep => default_quorum(n),
            RoundDriverConfig::QuorumOrTimeout { quorum, .. } => {
                quorum.unwrap_or_else(|| default_quorum(n))
            }
        }
    }

    /// The local round-timer length in nanoseconds for a backend whose
    /// true δ is `delta_ns` (≥ 1 so virtual time always progresses).
    pub fn timeout_ns(&self, delta_ns: u64) -> u64 {
        match self {
            RoundDriverConfig::Lockstep => delta_ns,
            RoundDriverConfig::QuorumOrTimeout { timeout_factor, .. } => {
                ((delta_ns as f64 * timeout_factor).clamp(1.0, u64::MAX as f64)) as u64
            }
        }
    }

    /// [`Self::timeout_ns`] over wall-clock [`std::time::Duration`]s,
    /// for the paced backends.
    pub fn timeout_duration(&self, delta: std::time::Duration) -> std::time::Duration {
        let ns = u64::try_from(delta.as_nanos()).unwrap_or(u64::MAX);
        std::time::Duration::from_nanos(self.timeout_ns(ns))
    }

    /// [`Self::timeout_ns`] after `shift` late-delivery backoff
    /// doublings (saturating; `shift` is capped at
    /// [`MAX_BACKOFF_SHIFT`]).
    ///
    /// Backoff is the partial-synchrony half of the driver: whenever a
    /// round admits a delivery that already missed its intended round
    /// (`sent_round + 1 < round`, see
    /// [`meba_sim::LiveRoundOutcome::late_admitted`]), the
    /// process's local timer has demonstrably outpaced the network —
    /// because the δ-estimate is too small, because quorum advancement
    /// drifted this process's schedule ahead of a peer's, or because
    /// GST has not been reached. Event-driven backends respond by
    /// doubling the local timeout (once per such round), so any finite
    /// underestimate self-corrects after `O(log(δ/estimate))` rounds —
    /// the standard partial-synchrony argument for eventually exceeding
    /// the unknown network bound. Clean rounds walk the shift back down
    /// (see [`update_backoff_shift`]), so a transient burst — e.g. a
    /// restarted process catching up from round 0 — does not pin the
    /// timer at the cap. Lockstep mode never backs off: its deadlines
    /// are the global schedule, and pre-GST lateness there is the
    /// scenario under test, not a pacing error.
    pub fn backed_off_timeout_ns(&self, delta_ns: u64, shift: u32) -> u64 {
        self.timeout_ns(delta_ns).saturating_mul(1u64 << shift.min(MAX_BACKOFF_SHIFT))
    }

    /// Validates the knobs that no backend can honor.
    ///
    /// # Errors
    ///
    /// `QuorumOrTimeout` with a `timeout_factor` that is not a finite
    /// positive number has no timer schedule at all.
    pub fn validate(&self) -> Result<(), DriverConfigError> {
        match self {
            RoundDriverConfig::Lockstep => Ok(()),
            RoundDriverConfig::QuorumOrTimeout { timeout_factor, .. } => {
                if timeout_factor.is_finite() && *timeout_factor > 0.0 {
                    Ok(())
                } else {
                    Err(DriverConfigError::TimeoutFactorInvalid { timeout_factor: *timeout_factor })
                }
            }
        }
    }
}

/// A [`RoundDriverConfig`] no backend can honor.
#[derive(Clone, Debug, PartialEq)]
pub enum DriverConfigError {
    /// `timeout_factor` must be a finite number `> 0` — the local round
    /// timer is `timeout_factor · δ`, and a zero, negative, or NaN
    /// timer has no meaning on any timeline.
    TimeoutFactorInvalid {
        /// The rejected value.
        timeout_factor: f64,
    },
}

impl std::fmt::Display for DriverConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverConfigError::TimeoutFactorInvalid { timeout_factor } => write!(
                f,
                "timeout_factor = {timeout_factor} is invalid: the local round timer \
                 is timeout_factor \u{b7} \u{3b4} and must be a finite positive length"
            ),
        }
    }
}

impl std::error::Error for DriverConfigError {}

/// Cap on late-delivery backoff doublings: a timer already 2¹⁶ × the
/// δ-estimate has exhausted any plausible mis-estimate, and capping the
/// shift keeps the `u64` arithmetic saturating instead of wrapping.
pub const MAX_BACKOFF_SHIFT: u32 = 16;

/// Adapts a backend's late-delivery backoff shift after one executed
/// round: up by one (timer doubles) when the round admitted late
/// traffic, down by one (timer halves) when it was clean.
///
/// The decay half is what keeps a cluster live across real process
/// churn. A replica restarted as a fresh OS process re-enters at round
/// 0 and fast-forwards on buffered quorum evidence, but until it
/// reaches the frontier every message it sends is stamped with an old
/// round and admitted *late* at its peers. Under increase-only backoff
/// each such peer round ratchets the timer toward
/// `2^MAX_BACKOFF_SHIFT · δ` with no way back down, so one rejoin burst
/// can freeze the whole schedule. With symmetric decay the burst still
/// doubles the timer while it lasts — the partial-synchrony
/// self-correction is untouched, since persistent lateness holds the
/// shift up — but once the rejoiner is caught up, clean rounds walk the
/// timer back to the δ-estimate in `O(shift)` rounds.
pub fn update_backoff_shift(shift: &mut u32, late_admitted: u64) {
    if late_admitted > 0 {
        *shift = (*shift + 1).min(MAX_BACKOFF_SHIFT);
    } else {
        *shift = shift.saturating_sub(1);
    }
}

/// The paper's quorum: `n - t` with `t = ⌊(n-1)/2⌋`. Since `n ≥ 2t + 1`
/// this gives `n - t ≥ t + 1`, so every quorum contains at least one
/// correct process and any two quorums intersect (in `≥ n - 2t ≥ 1`
/// processes — the honest-majority intersection the paper's certificate
/// arguments rest on). For n = 1 this is 1 — a process alone is its own
/// quorum.
pub fn default_quorum(n: usize) -> usize {
    n - n.saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_quorum_contains_a_correct_process_and_intersects() {
        for n in 1..=257usize {
            let t = n.saturating_sub(1) / 2;
            let q = default_quorum(n);
            assert_eq!(q, n - t);
            // Every quorum outnumbers the faulty processes…
            assert!(q > t, "quorum majority-correct at n = {n}");
            // …and any two quorums overlap in ≥ 2q - n ≥ 1 processes.
            assert!(2 * q > n, "quorum intersection at n = {n}");
        }
    }

    #[test]
    fn lockstep_timeout_is_the_backend_delta() {
        assert_eq!(RoundDriverConfig::Lockstep.timeout_ns(1_000_000), 1_000_000);
        assert_eq!(RoundDriverConfig::Lockstep.effective_quorum(7), 4);
        assert!(RoundDriverConfig::Lockstep.validate().is_ok());
    }

    #[test]
    fn quorum_or_timeout_scales_the_timer_and_resolves_quorum() {
        let d = RoundDriverConfig::QuorumOrTimeout { quorum: None, timeout_factor: 0.5 };
        assert_eq!(d.timeout_ns(1_000_000), 500_000);
        assert_eq!(d.effective_quorum(7), 4);
        let d = RoundDriverConfig::QuorumOrTimeout { quorum: Some(7), timeout_factor: 4.0 };
        assert_eq!(d.timeout_ns(1_000_000), 4_000_000);
        assert_eq!(d.effective_quorum(7), 7);
        // Tiny factors clamp to ≥ 1 ns so virtual time always advances.
        let d = RoundDriverConfig::QuorumOrTimeout { quorum: None, timeout_factor: 1e-12 };
        assert_eq!(d.timeout_ns(10), 1);
    }

    #[test]
    fn backoff_doubles_saturates_and_caps() {
        let d = RoundDriverConfig::quorum_or_timeout();
        assert_eq!(d.backed_off_timeout_ns(1_000, 0), 1_000);
        assert_eq!(d.backed_off_timeout_ns(1_000, 3), 8_000);
        // Shifts beyond the cap behave like the cap…
        assert_eq!(
            d.backed_off_timeout_ns(1_000, MAX_BACKOFF_SHIFT + 40),
            d.backed_off_timeout_ns(1_000, MAX_BACKOFF_SHIFT),
        );
        // …and the multiply saturates instead of wrapping.
        assert_eq!(d.backed_off_timeout_ns(u64::MAX / 2, MAX_BACKOFF_SHIFT), u64::MAX);
    }

    #[test]
    fn backoff_shift_ratchets_up_on_late_rounds_and_decays_on_clean_ones() {
        let mut shift = 0u32;
        // Persistent lateness ratchets to the cap and holds there…
        for _ in 0..MAX_BACKOFF_SHIFT + 5 {
            update_backoff_shift(&mut shift, 3);
        }
        assert_eq!(shift, MAX_BACKOFF_SHIFT);
        // …clean rounds walk it back down one doubling at a time…
        update_backoff_shift(&mut shift, 0);
        update_backoff_shift(&mut shift, 0);
        assert_eq!(shift, MAX_BACKOFF_SHIFT - 2);
        // …alternating late/clean traffic oscillates instead of
        // ratcheting (a chronically half-step-behind peer must not
        // freeze the schedule)…
        let mut shift = 0u32;
        for _ in 0..100 {
            update_backoff_shift(&mut shift, 1);
            update_backoff_shift(&mut shift, 0);
        }
        assert!(shift <= 1, "alternating lateness stays bounded, got {shift}");
        // …and a fully clean history saturates at zero.
        update_backoff_shift(&mut shift, 0);
        update_backoff_shift(&mut shift, 0);
        assert_eq!(shift, 0);
    }

    #[test]
    fn non_positive_and_non_finite_factors_are_rejected_typed() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let d = RoundDriverConfig::QuorumOrTimeout { quorum: None, timeout_factor: bad };
            let err = d.validate().unwrap_err();
            match err {
                DriverConfigError::TimeoutFactorInvalid { timeout_factor } => {
                    assert!(timeout_factor.is_nan() || timeout_factor == bad);
                }
            }
            assert!(err.to_string().contains("timeout_factor"));
        }
    }
}
