//! FIRE: a match over `MpiError` with a `_` wildcard. When the failure
//! taxonomy grows (the paper's evolution added communicator revocation on
//! top of process failure), new classes silently fall into `Retry`
//! instead of forcing a decision at this site.

pub fn classify(e: &MpiError) -> Action {
    match e {
        MpiError::ProcFailed { rank } => Action::Repair { rank: *rank },
        // Everything else — including failure classes that do not exist
        // yet — silently becomes a retry.
        _ => Action::Retry,
    }
}

/// The peer-memory store's error enum is guarded the same way: a new
/// `RedError` class (the store grew `Placement` and `Codec` after
/// `DataLost`) must not silently count as recoverable.
pub fn is_unrecoverable(e: &RedError) -> bool {
    match e {
        RedError::DataLost { .. } => true,
        _ => false,
    }
}
