//! Typed errors for the labelling runtime.
//!
//! Callers that need to react to a specific failure (an overloaded
//! admission queue, a tenant that panicked mid-run, a checkpoint grafted
//! onto the wrong config, a corrupt checkpoint) match on the variant;
//! `From<ServiceError> for crowdrl_types::Error` keeps the run APIs on the
//! workspace-wide error type.

use crowdrl_types::Error;

/// Runtime failures with enough structure to react to.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A submission was refused at admission time: the service was at
    /// capacity under [`AdmissionPolicy::Reject`](crate::AdmissionPolicy),
    /// or the bounded queue was full and the project was shed.
    AdmissionRejected {
        /// Submission index of the refused project.
        project: usize,
        /// Why admission refused it.
        reason: String,
    },
    /// A project failed mid-run — a shard panicked or a fault plan
    /// aborted it — and was isolated from the remaining tenants.
    ProjectFailed {
        /// Submission index of the failed project.
        project: usize,
        /// The panic payload or abort reason.
        reason: String,
    },
    /// A checkpoint was captured under a different configuration than
    /// the one trying to restore it.
    ConfigMismatch {
        /// Fingerprint of the restoring configuration.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        actual: u64,
    },
    /// A checkpoint failed to decode: truncated, mis-typed, or from a
    /// different build of the serializer.
    CorruptCheckpoint(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::AdmissionRejected { project, reason } => {
                write!(f, "project {project} rejected at admission: {reason}")
            }
            Self::ProjectFailed { project, reason } => {
                write!(f, "project {project} failed mid-run: {reason}")
            }
            Self::ConfigMismatch { expected, actual } => write!(
                f,
                "checkpoint config fingerprint {actual:#018x} does not match \
                 the restoring config {expected:#018x}"
            ),
            Self::CorruptCheckpoint(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServiceError> for Error {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::ConfigMismatch { .. } | ServiceError::CorruptCheckpoint(_) => {
                Error::InvalidParameter(e.to_string())
            }
            ServiceError::AdmissionRejected { .. } | ServiceError::ProjectFailed { .. } => {
                Error::ServiceFailure(e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ServiceError::ConfigMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("fingerprint"));
        let e = ServiceError::ProjectFailed {
            project: 3,
            reason: "injected fault".into(),
        };
        assert!(e.to_string().contains("project 3"));
        assert!(e.to_string().contains("injected fault"));
        let e = ServiceError::AdmissionRejected {
            project: 9,
            reason: "queue full".into(),
        };
        assert!(e.to_string().contains("queue full"));
        let e = ServiceError::CorruptCheckpoint("not json".into());
        assert!(e.to_string().contains("not json"));
    }

    #[test]
    fn conversion_routes_by_kind() {
        let bad_restore: Error = ServiceError::ConfigMismatch {
            expected: 0,
            actual: 1,
        }
        .into();
        assert!(matches!(bad_restore, Error::InvalidParameter(_)));
        let corrupt: Error = ServiceError::CorruptCheckpoint("truncated".into()).into();
        assert!(matches!(corrupt, Error::InvalidParameter(_)));
        let failed: Error = ServiceError::ProjectFailed {
            project: 0,
            reason: "panic".into(),
        }
        .into();
        assert!(matches!(failed, Error::ServiceFailure(_)));
        let shed: Error = ServiceError::AdmissionRejected {
            project: 0,
            reason: "shed".into(),
        }
        .into();
        assert!(matches!(shed, Error::ServiceFailure(_)));
    }
}
