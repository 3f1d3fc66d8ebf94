//! The one-way error latch behind both of the store's failure states: a
//! poisoned write-ahead log and a degraded store.

use flodb_storage::StorageError;
use flodb_sync::lock_order::CORE_ERROR_LATCH;
use flodb_sync::shim::atomic::{AtomicBool, Ordering};
use flodb_sync::shim::{ranked_mutex, Arc, Mutex};

use crate::error::WriteError;

/// A flag every write checks (one atomic load) plus the failure that
/// set it. Closing is one-way and the first failure wins the slot.
pub(super) struct ErrorLatch {
    /// What a closed latch means, for the errors built from it.
    what: &'static str,
    closed: AtomicBool,
    /// The failure that closed the latch. Locked by the closing call site
    /// itself, see [`Self::close`].
    pub(super) cause: Mutex<Option<Arc<StorageError>>>,
}

impl ErrorLatch {
    pub(super) fn new(what: &'static str) -> Self {
        Self {
            what,
            closed: AtomicBool::new(false),
            cause: ranked_mutex(CORE_ERROR_LATCH, None),
        }
    }

    #[inline]
    pub(super) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Closes the latch, recording `cause` unless an earlier failure
    /// already did. `slot` is this latch's own locked `cause`: the caller
    /// takes that lock (`latch.close(&mut latch.cause.lock(), ..)`) so the
    /// acquisition sits where `cargo xtask locks` can see what it nests
    /// under — the WAL closes its latch while still holding the log mutex.
    /// The flag is published only after the slot is filled, so whoever
    /// observes a closed latch finds its cause.
    pub(super) fn close(&self, slot: &mut Option<Arc<StorageError>>, cause: StorageError) {
        if slot.is_none() {
            *slot = Some(Arc::new(cause));
        }
        self.closed.store(true, Ordering::Release);
    }

    /// The failure that closed the latch, if any.
    pub(super) fn cause(&self) -> Option<Arc<StorageError>> {
        self.cause.lock().clone()
    }

    /// The error for an operation refused because the latch is closed.
    pub(super) fn refusal(&self) -> StorageError {
        StorageError::Io(std::io::Error::other(self.what))
    }

    /// The [`WriteError`] a write on a closed latch reports: the recorded
    /// cause (the refusal only stands in for a caller that never saw the
    /// latch closed).
    pub(super) fn write_error(&self) -> WriteError {
        WriteError::Poisoned(self.cause().unwrap_or_else(|| Arc::new(self.refusal())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io(msg: &str) -> StorageError {
        StorageError::Io(std::io::Error::other(msg.to_string()))
    }

    #[test]
    fn first_failure_wins_and_the_latch_stays_closed() {
        let latch = ErrorLatch::new("latched");
        assert!(!latch.is_closed());
        assert!(latch.cause().is_none());
        latch.close(&mut latch.cause.lock(), io("first"));
        latch.close(&mut latch.cause.lock(), io("second"));
        assert!(latch.is_closed());
        assert!(latch.cause().unwrap().to_string().contains("first"));
        let WriteError::Poisoned(err) = latch.write_error() else {
            panic!("a closed latch reports Poisoned");
        };
        assert!(err.to_string().contains("first"));
    }

    #[test]
    fn refusal_carries_the_latch_meaning() {
        let latch = ErrorLatch::new("log poisoned");
        assert!(latch.refusal().to_string().contains("log poisoned"));
        let WriteError::Poisoned(err) = latch.write_error() else {
            panic!("Poisoned");
        };
        assert!(err.to_string().contains("log poisoned"));
    }
}
