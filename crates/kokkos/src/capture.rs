//! Automatic detection of the views a code region uses.
//!
//! Kokkos Resilience "uses Kokkos's model of data storage and functor- and
//! lambda-based parallelism to automatically detect the data to be
//! checkpointed". The Rust equivalent: while a [`CaptureSession`] is active
//! on the current rank, every [`View`](crate::view::View) whose data is
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

use crate::view::{Inner, View, ViewMeta};

/// Type-erased checkpointable data handle.
pub trait Checkpointable: Send + Sync {
    fn meta(&self) -> ViewMeta;
    /// Size of the contents in bytes: `meta().bytes`, which a handle can
    /// answer without copying its metadata.
    fn byte_len(&self) -> usize {
        self.meta().bytes
    }
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

    fn byte_len(&self) -> usize {
        View::meta(self).bytes
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

/// A view object's handle ([`View::handle`]): the same behaviour as the
/// view's own, reached without a `View` around it.
impl<T: Pod> Checkpointable for Inner<T> {
    fn meta(&self) -> ViewMeta {
        self.meta.clone()
    }

    fn byte_len(&self) -> usize {
        self.meta.bytes
    }

    fn snapshot(&self) -> Bytes {
        pod::to_bytes(&self.read_uncaptured())
    }

    fn restore(&self, data: &[u8]) {
        pod::copy_from_bytes(&mut self.write_uncaptured(), data);
    }

    fn generation(&self) -> Option<u64> {
        Some(Inner::generation(self))
    }

    fn with_bytes(&self, f: &mut dyn FnMut(&[u8])) {
        f(pod::as_bytes(&self.read_uncaptured()));
    }
}

/// One view a session saw: its metadata at the first access, whether any
/// access wrote, and a handle to it.
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

/// A recording of the views accessed between [`CaptureSession::begin`] and
/// [`CaptureSession::end`] on one rank.
#[derive(Clone, Default)]
pub struct CaptureSession {
    inner: Arc<Session>,
}

#[derive(Default)]
struct Session {
    records: Mutex<Vec<CaptureRecord>>,
    link: Mutex<Link>,
}

/// Where an active session sits among the active ones: they form a list
/// from the innermost out, so beginning one allocates nothing.
#[derive(Default)]
struct Link {
    /// The session that was innermost when this one began.
    outer: Option<CaptureSession>,
    /// Times the session began again while already active: it stays where
    /// it is in the list, and each `end` of one of these takes one back.
    reentries: usize,
}

thread_local! {
    /// The innermost active session.
    static ACTIVE: RefCell<Option<CaptureSession>> = const { RefCell::new(None) };
}

/// The active sessions belong to the rank, not the thread: under the DES
/// engine many ranks take turns on one thread, and each keeps its own. The
/// innermost session's shared state moves out and back as it is, so a
/// task switch inside a capture allocates nothing.
static ACTIVE_PER_TASK: simmpi::task::TaskLocal = simmpi::task::TaskLocal {
    take: || {
        let innermost = ACTIVE.with(|a| a.borrow_mut().take())?;
        Some(innermost.inner as simmpi::task::TaskValue)
    },
    restore: |value| {
        if let Ok(inner) = value.downcast::<Session>() {
            ACTIVE.with(|a| *a.borrow_mut() = Some(CaptureSession { inner }));
        }
    },
};

impl CaptureSession {
    pub fn new() -> Self {
        Self::default()
    }

    /// Activate this session on the current thread (sessions nest; the
    /// innermost active session receives the records, and records propagate
    /// to outer sessions as well so nested regions compose).
    ///
    /// A session that is already active (a region re-entered under its own
    /// label) is not linked a second time: that would make it its own
    /// outer session.
    pub fn begin(&self) {
        simmpi::task::register(&ACTIVE_PER_TASK);
        ACTIVE.with(|a| {
            let mut active = a.borrow_mut();
            if self.is_active_in(active.as_ref()) {
                self.inner.link.lock().reentries += 1;
                return;
            }
            self.inner.link.lock().outer = active.take();
            *active = Some(self.clone());
        });
    }

    /// Deactivate this session's latest `begin`: a re-entry's count, else
    /// the innermost session. Panics if no session is active.
    pub fn end(&self) {
        {
            let mut link = self.inner.link.lock();
            if link.reentries > 0 {
                link.reentries -= 1;
                return;
            }
        }
        ACTIVE.with(|a| {
            let mut active = a.borrow_mut();
            let Some(popped) = active.take() else {
                panic!("no active capture session to end");
            };
            *active = popped.inner.link.lock().outer.take();
        });
    }

    /// Whether this session is active on this thread.
    pub fn is_active(&self) -> bool {
        ACTIVE.with(|a| self.is_active_in(a.borrow().as_ref()))
    }

    /// Whether this session is in the list of active sessions that starts
    /// at `innermost`.
    fn is_active_in(&self, innermost: Option<&CaptureSession>) -> bool {
        let mut next = innermost.cloned();
        while let Some(session) = next {
            if Arc::ptr_eq(&session.inner, &self.inner) {
                return true;
            }
            next = session.inner.link.lock().outer.clone();
        }
        false
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

    /// One record per view object (`view_id`) accessed, in first-access
    /// order; a record's `wrote` says whether any of its accesses wrote.
    /// Repeated accesses fold into the first one's record as they happen,
    /// so a view is copied into the session once.
    pub fn records(&self) -> Vec<CaptureRecord> {
        self.inner.records.lock().clone()
    }

    /// [`Self::records`]: the views the session saw, each once.
    pub fn unique_views(&self) -> Vec<CaptureRecord> {
        self.records()
    }

    /// [`Self::records`], moved out of the session rather than copied.
    pub fn into_records(self) -> Vec<CaptureRecord> {
        std::mem::take(&mut *self.inner.records.lock())
    }

    /// Hand each record to `f`, in [`Self::records`] order, and leave the
    /// session empty with its table kept for the next recording.
    pub fn drain(&self, f: impl FnMut(CaptureRecord)) {
        self.inner.records.lock().drain(..).for_each(f);
    }

    pub fn is_empty(&self) -> bool {
        self.inner.records.lock().is_empty()
    }

    pub fn clear(&self) {
        self.inner.records.lock().clear();
    }

    /// Note an access to `view`: a new record on its first access, its
    /// write flag folded in on every later one.
    fn note<T: Pod>(&self, view: &View<T>, wrote: bool) {
        let mut records = self.inner.records.lock();
        let id = View::meta(view).view_id;
        match records.iter_mut().find(|r| r.meta.view_id == id) {
            Some(seen) => seen.wrote |= wrote,
            None => records.push(CaptureRecord {
                meta: View::meta(view).clone(),
                wrote,
                handle: view.handle(),
            }),
        }
    }
}

/// Whether any capture session is active on this thread.
pub fn capturing() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Record a view access into every active session on this thread.
/// Called by `View::read`/`View::write`; cheap when no session is active.
pub fn record_access<T: Pod>(view: &View<T>, wrote: bool) {
    let mut next = ACTIVE.with(|a| a.borrow().clone());
    while let Some(session) = next {
        session.note(view, wrote);
        next = session.inner.link.lock().outer.clone();
    }
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
        assert_eq!(&*recs[0].meta.label, "a");
        assert!(!recs[0].wrote);
        assert_eq!(&*recs[1].meta.label, "b");
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
    fn a_session_nested_in_itself_records_once_and_ends_in_order() {
        let v: View<f64> = View::new_1d("a", 4);
        let w: View<f64> = View::new_1d("b", 4);
        let outer = CaptureSession::new();
        let inner = CaptureSession::new();
        outer.record(|| {
            inner.record(|| {
                outer.record(|| {
                    outer.record(|| {
                        let _ = v.read();
                    });
                });
                assert!(capturing(), "the re-entries' ends leave both active");
                let _ = w.write();
            });
            let _ = v.write();
        });
        assert!(!capturing());
        assert_eq!(inner.records().len(), 2);
        let recs = outer.records();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].wrote && recs[1].wrote);
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
