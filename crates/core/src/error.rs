//! Error type for the RAELLA core.

use std::fmt;

use raella_nn::NnError;
use raella_xbar::XbarError;

/// Errors produced while compiling or running layers on RAELLA.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration value was out of its valid range.
    InvalidConfig(String),
    /// The adaptive search could not produce any slicing (should not happen
    /// with a valid configuration; kept for defensive reporting).
    NoFeasibleSlicing {
        /// Layer whose search failed.
        layer: String,
    },
    /// An error bubbled up from the DNN substrate.
    Nn(NnError),
    /// An error bubbled up from the crossbar simulator.
    Xbar(XbarError),
    /// A serving-surface failure: unknown model handle, or a request whose
    /// worker disappeared before responding.
    Server(String),
    /// A depth-bounded server queue rejected an admission attempt:
    /// a fail-fast `submit` found no space, a deadline `submit` expired,
    /// or an all-or-nothing `submit_many` could not reserve every slot. The
    /// request was **not** enqueued — no handle exists for it.
    QueueFull {
        /// Model the rejected request(s) targeted.
        model: usize,
        /// Requests pending server-wide when admission failed.
        pending: usize,
    },
    /// An invalid tile placement: a shard plan that does not cover the
    /// model's row groups or names an out-of-range tile.
    Shard(String),
    /// A shard plan was offered to a model it was not built for: the
    /// plan's recorded structural fingerprint and the model's fingerprint
    /// disagree. Reprogrammed generations of the same model keep their
    /// fingerprint (weights are excluded from it), so this only fires for
    /// genuinely different graphs or configurations.
    PlanMismatch {
        /// Structural fingerprint the plan was built for.
        expected: u64,
        /// Structural fingerprint of the model the plan was offered to.
        found: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::NoFeasibleSlicing { layer } => {
                write!(f, "no feasible weight slicing for layer {layer}")
            }
            CoreError::Nn(e) => write!(f, "dnn substrate: {e}"),
            CoreError::Xbar(e) => write!(f, "crossbar: {e}"),
            CoreError::Server(msg) => write!(f, "server: {msg}"),
            CoreError::QueueFull { model, pending } => write!(
                f,
                "server queue full: model {model} rejected at {pending} pending requests"
            ),
            CoreError::Shard(msg) => write!(f, "shard plan: {msg}"),
            CoreError::PlanMismatch { expected, found } => write!(
                f,
                "shard plan: plan was built for a different model \
                 (plan fingerprint {expected:#018x}, model {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Nn(e) => Some(e),
            CoreError::Xbar(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<XbarError> for CoreError {
    fn from(e: XbarError) -> Self {
        CoreError::Xbar(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_sources() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
        let e = CoreError::from(NnError::InvalidConfig("x".into()));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("dnn substrate"));
    }

    #[test]
    fn plan_mismatch_displays_both_fingerprints() {
        let e = CoreError::PlanMismatch {
            expected: 0xDEAD,
            found: 0xBEEF,
        };
        let msg = e.to_string();
        assert!(msg.contains("0x000000000000dead"), "{msg}");
        assert!(msg.contains("0x000000000000beef"), "{msg}");
        assert!(msg.contains("different model"), "{msg}");
    }
}
