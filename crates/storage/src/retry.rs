//! Page-request retry policy with backoff in **simulated** disk-time units.
//!
//! Retries happen inside the simulation, so their cost must be expressed in
//! the same currency as everything else the cost model charges: page-transfer
//! units. A failed attempt re-pays the full `PT + n` of the request (the arm
//! repositioned and the transfer restarted), and the pause before the retry
//! adds `backoff` further units. Wall-clock time never enters — the suite's
//! results must be reproducible on any host at any load.

/// Retry schedule applied inside [`crate::SimDisk`] at the page-request
/// level: how many attempts a single `try_read`/`try_append` call makes and
/// how long (in simulated transfer units) it backs off between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in page-transfer units.
    pub base_backoff_units: u64,
    /// Cap on the exponential backoff, in page-transfer units.
    pub max_backoff_units: u64,
    /// Upper bound on deterministic jitter added to each backoff, in
    /// page-transfer units. The jitter value is a pure function of the
    /// request identity and the attempt index (no shared RNG state).
    pub jitter_units: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_units: 2,
            max_backoff_units: 64,
            jitter_units: 2,
        }
    }
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_units: 0,
            max_backoff_units: 0,
            jitter_units: 0,
        }
    }

    /// A policy with `max_attempts` attempts and the default backoff curve.
    pub fn with_max_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// Whether a failure of `kind` is worth retrying at all. Persistent
    /// kinds (damaged sectors, ENOSPC) fail identically on every attempt, so
    /// the policy classifies them as give-up-immediately: no simulated
    /// backoff is charged and the error surfaces after one attempt,
    /// regardless of `max_attempts`.
    pub fn should_retry(&self, kind: crate::IoErrorKind) -> bool {
        self.max_attempts > 1 && kind.is_transient()
    }

    /// Backoff charged before retrying after the `failure_idx`-th failure of
    /// an identity (0-based, the identity's shared attempt counter — using
    /// the global index rather than the caller-local one keeps the total
    /// backoff deterministic when several handles contend for one identity).
    /// `salt` is the request's identity salt; jitter derives from it alone.
    pub fn backoff_units(&self, failure_idx: u32, salt: u64) -> u64 {
        let exp = self
            .base_backoff_units
            .saturating_mul(1u64 << failure_idx.min(20))
            .min(self.max_backoff_units);
        let jitter = if self.jitter_units == 0 {
            0
        } else {
            // SplitMix-style mix of (salt, failure_idx); no shared state.
            let mut z = salt ^ (failure_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % (self.jitter_units + 1)
        };
        // Saturate: with an extreme policy (`max_backoff_units` near
        // `u64::MAX`) the capped exponential plus jitter would wrap, turning
        // a huge backoff charge into a tiny one (or a debug-build panic).
        exp.saturating_add(jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_up_to_cap() {
        let p = RetryPolicy {
            jitter_units: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_units(0, 99), 2);
        assert_eq!(p.backoff_units(1, 99), 4);
        assert_eq!(p.backoff_units(2, 99), 8);
        assert_eq!(p.backoff_units(10, 99), 64); // capped
        assert_eq!(p.backoff_units(63, 99), 64); // shift clamp, no overflow
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for idx in 0..8 {
            for salt in [0u64, 1, 0xDEAD_BEEF] {
                let a = p.backoff_units(idx, salt);
                let b = p.backoff_units(idx, salt);
                assert_eq!(a, b);
                let base = RetryPolicy {
                    jitter_units: 0,
                    ..p
                }
                .backoff_units(idx, salt);
                assert!(a >= base && a <= base + p.jitter_units);
            }
        }
    }

    #[test]
    fn none_policy_never_retries() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
    }

    #[test]
    fn persistent_kinds_are_never_retried() {
        use crate::IoErrorKind;
        let p = RetryPolicy::default();
        assert!(p.should_retry(IoErrorKind::TransientRead));
        assert!(p.should_retry(IoErrorKind::TornWrite));
        assert!(!p.should_retry(IoErrorKind::PersistentCorruption));
        assert!(!p.should_retry(IoErrorKind::DiskFull));
        assert!(!p.should_retry(IoErrorKind::FileDeleted));
        assert!(!RetryPolicy::none().should_retry(IoErrorKind::TransientRead));
    }

    #[test]
    fn extreme_policy_saturates_instead_of_overflowing() {
        // Regression: with an uncapped `max_backoff_units` the exponential
        // hits the cap exactly (`u64::MAX`) and the jitter add used to wrap
        // around to a near-zero charge (panicking in debug builds). Attempts
        // well past 32 must keep returning the saturated maximum.
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff_units: u64::MAX,
            max_backoff_units: u64::MAX,
            jitter_units: u64::MAX - 1,
        };
        for idx in [32u32, 33, 64, 1000, u32::MAX] {
            let units = p.backoff_units(idx, 0xDEAD_BEEF);
            assert!(
                units >= p.max_backoff_units.saturating_sub(p.jitter_units),
                "attempt {idx} wrapped: {units}"
            );
        }
        assert_eq!(p.backoff_units(40, 7), u64::MAX);
    }

    #[test]
    fn total_backoff_accumulation_saturates() {
        // The per-request accumulator in the disk charges
        // `saturating_add(backoff_units(..))`; summing many maxed-out
        // backoffs must pin at u64::MAX rather than wrap.
        let p = RetryPolicy {
            base_backoff_units: u64::MAX / 2,
            max_backoff_units: u64::MAX,
            jitter_units: 0,
            ..RetryPolicy::default()
        };
        let mut total = 0u64;
        for idx in 0..64 {
            total = total.saturating_add(p.backoff_units(idx, 1));
        }
        assert_eq!(total, u64::MAX);
    }
}
