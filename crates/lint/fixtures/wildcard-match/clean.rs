//! CLEAN: every `MpiError` variant is named, so adding a variant breaks
//! the build here and forces a recovery decision. `matches!` keeps its
//! implicit wildcard — that *is* the macro's contract — and a `Result`
//! match that forwards errors wholesale names no variant and is exempt.

pub fn classify(e: &MpiError) -> Action {
    match e {
        MpiError::ProcFailed { rank } => Action::Repair { rank: *rank },
        MpiError::Revoked => Action::Reinit,
        MpiError::Killed | MpiError::Aborted => Action::Abort,
        MpiError::RankOutOfRange { .. } | MpiError::TypeMismatch => Action::Abort,
    }
}

pub fn is_transient(e: &MpiError) -> bool {
    matches!(e, MpiError::ProcFailed { .. } | MpiError::Revoked)
}

pub fn forward(r: Result<u64, MpiError>) -> Result<u64, MpiError> {
    match r {
        Ok(v) => Ok(v + 1),
        Err(e) => Err(e),
    }
}

pub fn red_err(e: RedError) -> MpiError {
    match e {
        RedError::Mpi(e) => e,
        RedError::DataLost { .. } | RedError::Placement(_) | RedError::Codec(_) => {
            MpiError::Aborted
        }
    }
}
