//! Cooperative cancellation for long-running work.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between a
//! supervisor and the work it supervises. The supervisor arms it with a
//! deadline (or trips it explicitly); the work polls [`CancelToken::is_cancelled`]
//! at natural yield points — every few loop iterations — and bails
//! out early when it fires. Cancellation is **latching**: once observed,
//! every later poll also reports cancelled, even if the clock were to drift.
//!
//! The token never interrupts anything by force. Code that ignores it runs
//! to completion; the supervisor's job is to discard the late result.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    /// Set by [`CancelToken::cancel`] or latched by a deadline poll.
    cancelled: AtomicBool,
    /// Wall-clock instant after which polls latch the token, if armed.
    deadline: Option<Instant>,
    /// Number of `is_cancelled` polls, for tests that assert the work
    /// actually cooperates (e.g. kernels polling once per stride).
    polls: AtomicU64,
}

/// Shared cancellation flag with an optional deadline. Clones observe the
/// same state; cloning is an `Arc` bump.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that never fires on its own (no deadline); it can still be
    /// tripped explicitly with [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken::build(None)
    }

    /// A token that latches once `timeout` has elapsed from now. A zero
    /// timeout is treated as "no deadline" so configs can use `0 = off`.
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        if timeout.is_zero() {
            CancelToken::new()
        } else {
            CancelToken::build(Instant::now().checked_add(timeout))
        }
    }

    fn build(deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                polls: AtomicU64::new(0),
            }),
        }
    }

    /// Trip the token explicitly. All clones observe it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Poll the token: `true` once cancelled or past the deadline.
    /// Latching — a `true` result never reverts to `false`.
    pub fn is_cancelled(&self) -> bool {
        self.inner.polls.fetch_add(1, Ordering::Relaxed);
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.inner.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// Whether a deadline is armed (regardless of whether it has fired).
    pub fn has_deadline(&self) -> bool {
        self.inner.deadline.is_some()
    }

    /// How many times `is_cancelled` has been polled across all clones.
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Relaxed)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.has_deadline());
    }

    #[test]
    fn cancel_is_visible_to_clones_and_latches() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert!(t.is_cancelled(), "cancellation latches");
    }

    #[test]
    fn zero_deadline_means_no_deadline() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(!t.has_deadline());
        assert!(!t.is_cancelled());
    }

    #[test]
    fn elapsed_deadline_latches() {
        let t = CancelToken::with_deadline(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "deadline expiry latches");
    }

    #[test]
    fn polls_are_counted_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        let before = t.polls();
        let _ = t.is_cancelled();
        let _ = c.is_cancelled();
        assert_eq!(t.polls(), before + 2);
    }
}
