//! Automatic detection of the views a code region uses.
//!
//! Kokkos Resilience "uses Kokkos's model of data storage and functor- and
//! lambda-based parallelism to automatically detect the data to be
//! checkpointed". The Rust equivalent: while a [`CaptureSession`] is active
//! on the current thread, every [`View`](crate::view::View) whose data is
//! locked through `read()`/`write()` is recorded, together with a
//! type-erased handle that lets the resilience layer snapshot and restore it
//! later without knowing its element type.
//!
//! Limitation (documented, matching how the apps are written): the *handle
//! acquisition* is recorded, so views must be locked on the region's thread;
//! data touched only inside pool workers through pre-acquired guards is
//! attributed to the lock site, which is the region.

use std::cell::RefCell;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use simmpi::pod::{self, Pod};

use crate::view::{View, ViewMeta};

/// Type-erased checkpointable data handle.
pub trait Checkpointable: Send + Sync {
    fn meta(&self) -> ViewMeta;
    /// Serialize current contents (must not itself record a capture).
    fn snapshot(&self) -> Bytes;
    /// Overwrite contents from serialized bytes.
    fn restore(&self, data: &[u8]);
    /// Dirty-tracking stamp of the underlying allocation, if the handle
    /// supports one. `None` means "assume dirty every checkpoint" — the
    /// safe default for handles without write-path instrumentation.
    fn generation(&self) -> Option<u64> {
        None
    }

    /// Lend the current contents to `f`, as the bytes [`Self::snapshot`]
    /// would return, without an owned copy (the resilience layer's pack
    /// copies them straight into the frame). The default lends a
    /// snapshot.
    fn with_bytes(&self, f: &mut dyn FnMut(&[u8])) {
        f(&self.snapshot());
    }
}

impl<T: Pod> Checkpointable for View<T> {
    fn meta(&self) -> ViewMeta {
        View::meta(self).clone()
    }

    fn snapshot(&self) -> Bytes {
        self.snapshot_bytes()
    }

    fn restore(&self, data: &[u8]) {
        self.restore_bytes(data);
    }

    fn generation(&self) -> Option<u64> {
        Some(View::generation(self))
    }

    fn with_bytes(&self, f: &mut dyn FnMut(&[u8])) {
        // The view's storage itself, without the intermediate `Bytes` of
        // `snapshot_bytes` (and without recording a capture, like every
        // serialization path here).
        f(pod::as_bytes(&self.read_uncaptured()));
    }
}

/// One recorded view access.
#[derive(Clone)]
pub struct CaptureRecord {
    pub meta: ViewMeta,
    pub wrote: bool,
    pub handle: Arc<dyn Checkpointable>,
}

impl std::fmt::Debug for CaptureRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptureRecord")
            .field("label", &self.meta.label)
            .field("view_id", &self.meta.view_id)
            .field("alloc_id", &self.meta.alloc_id)
            .field("wrote", &self.wrote)
            .finish()
    }
}

/// A recording of all view accesses between [`CaptureSession::begin`] and
/// [`CaptureSession::end`] on one thread.
#[derive(Clone, Default)]
pub struct CaptureSession {
    records: Arc<Mutex<Vec<CaptureRecord>>>,
}

thread_local! {
    static ACTIVE: RefCell<Vec<CaptureSession>> = const { RefCell::new(Vec::new()) };
}

impl CaptureSession {
    pub fn new() -> Self {
        Self::default()
    }

    /// Activate this session on the current thread (sessions nest; the
    /// innermost active session receives the records, and records propagate
    /// to outer sessions as well so nested regions compose).
    pub fn begin(&self) {
        ACTIVE.with(|a| a.borrow_mut().push(self.clone()));
    }

    /// Deactivate the innermost session. Panics if no session is active.
    pub fn end(&self) {
        ACTIVE.with(|a| {
            let popped = a.borrow_mut().pop();
            assert!(popped.is_some(), "no active capture session to end");
        });
    }

    /// Run a closure with this session active, ending it even on panic.
    pub fn record<R>(&self, f: impl FnOnce() -> R) -> R {
        self.begin();
        struct Guard<'a>(&'a CaptureSession);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.end();
            }
        }
        let _g = Guard(self);
        f()
    }

    /// All raw records, in access order (may contain repeats).
    pub fn records(&self) -> Vec<CaptureRecord> {
        self.records.lock().clone()
    }

    /// Records deduplicated by `view_id`, keeping first-access order and
    /// OR-ing write flags (repeated accesses to the same view object fold
    /// into one record).
    pub fn unique_views(&self) -> Vec<CaptureRecord> {
        let records = self.records.lock();
        let mut out: Vec<CaptureRecord> = Vec::new();
        for r in records.iter() {
            if let Some(existing) = out.iter_mut().find(|o| o.meta.view_id == r.meta.view_id) {
                existing.wrote |= r.wrote;
            } else {
                out.push(r.clone());
            }
        }
        out
    }

    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    pub fn clear(&self) {
        self.records.lock().clear();
    }

    fn push(&self, record: CaptureRecord) {
        self.records.lock().push(record);
    }
}

/// Whether any capture session is active on this thread.
pub fn capturing() -> bool {
    ACTIVE.with(|a| !a.borrow().is_empty())
}

/// Record a view access into every active session on this thread.
/// Called by `View::read`/`View::write`; cheap when no session is active.
pub fn record_access<T: Pod>(view: &View<T>, wrote: bool) {
    ACTIVE.with(|a| {
        let sessions = a.borrow();
        if sessions.is_empty() {
            return;
        }
        let record = CaptureRecord {
            meta: View::meta(view).clone(),
            wrote,
            handle: Arc::new(view.clone()),
        };
        for s in sessions.iter() {
            s.push(record.clone());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_session_records_nothing() {
        let v: View<f64> = View::new_1d("a", 4);
        let _ = v.read();
        let _ = v.write();
        assert!(!capturing());
    }

    #[test]
    fn session_records_accesses() {
        let v: View<f64> = View::new_1d("a", 4);
        let w: View<u32> = View::new_1d("b", 2);
        let s = CaptureSession::new();
        s.record(|| {
            let _ = v.read();
            let _ = w.write();
        });
        let recs = s.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].meta.label, "a");
        assert!(!recs[0].wrote);
        assert_eq!(recs[1].meta.label, "b");
        assert!(recs[1].wrote);
    }

    #[test]
    fn unique_views_dedups_and_merges_write_flag() {
        let v: View<f64> = View::new_1d("a", 4);
        let s = CaptureSession::new();
        s.record(|| {
            let _ = v.read();
            let _ = v.write();
            let _ = v.read();
        });
        let uniq = s.unique_views();
        assert_eq!(uniq.len(), 1);
        assert!(uniq[0].wrote);
    }

    #[test]
    fn duplicate_handles_stay_distinct_records() {
        let v: View<f64> = View::new_1d("orig", 4);
        let d = v.duplicate_handle("dup");
        let s = CaptureSession::new();
        s.record(|| {
            let _ = v.read();
            let _ = d.read();
        });
        let uniq = s.unique_views();
        assert_eq!(uniq.len(), 2);
        assert_eq!(uniq[0].meta.alloc_id, uniq[1].meta.alloc_id);
        assert_ne!(uniq[0].meta.view_id, uniq[1].meta.view_id);
    }

    #[test]
    fn uncaptured_access_not_recorded() {
        let v: View<f64> = View::new_1d("a", 4);
        let s = CaptureSession::new();
        s.record(|| {
            let _ = v.read_uncaptured();
            let _ = v.snapshot_bytes();
        });
        assert!(s.is_empty());
    }

    #[test]
    fn nested_sessions_both_record() {
        let v: View<f64> = View::new_1d("a", 4);
        let outer = CaptureSession::new();
        let inner = CaptureSession::new();
        outer.record(|| {
            inner.record(|| {
                let _ = v.read();
            });
        });
        assert_eq!(outer.records().len(), 1);
        assert_eq!(inner.records().len(), 1);
    }

    #[test]
    fn session_ends_on_panic() {
        let s = CaptureSession::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.record(|| panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(!capturing(), "session leaked past panic");
    }

    #[test]
    fn restore_through_trait_object() {
        let v: View<u64> = View::from_vec("a", vec![1, 2, 3]);
        let handle: Arc<dyn Checkpointable> = Arc::new(v.clone());
        let snap = handle.snapshot();
        v.fill(0);
        handle.restore(&snap);
        assert_eq!(*v.read(), vec![1, 2, 3]);
    }
}
