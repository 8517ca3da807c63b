//! Error type for the crossbar simulator.

use std::fmt;

/// Errors produced while configuring or driving crossbar hardware models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum XbarError {
    /// A slicing was malformed (zero-width slice, over-wide slice, or the
    /// widths do not cover the operand).
    InvalidSlicing(String),
}

impl fmt::Display for XbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XbarError::InvalidSlicing(msg) => write!(f, "invalid slicing: {msg}"),
        }
    }
}

impl std::error::Error for XbarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_displays() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XbarError>();
        let e = XbarError::InvalidSlicing("widths sum to 9, not 8".into());
        assert_eq!(e.to_string(), "invalid slicing: widths sum to 9, not 8");
    }
}
