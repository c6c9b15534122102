//! Model-construction errors shared across the toolkit.
//!
//! [`ModelError`] is the umbrella type layered crates (chaos plans,
//! scenario builders) return when *configuration* is invalid, wrapping the
//! substrate's own [`ParamError`] so callers can match on one enum. Runtime
//! misbehavior of a simulation is reported separately as
//! [`SimError`](crate::engine::SimError).

use crate::dist::ParamError;

/// Why a model or plan could not be built.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// A distribution parameter was rejected.
    Param(ParamError),
    /// A rate or fraction was non-finite or negative.
    InvalidRate {
        /// Which parameter was rejected.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A required input collection was empty.
    Empty(&'static str),
}

impl core::fmt::Display for ModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ModelError::Param(e) => write!(f, "invalid distribution parameter: {e}"),
            ModelError::InvalidRate { what, value } => {
                write!(f, "invalid rate for {what}: {value}")
            }
            ModelError::Empty(what) => write!(f, "empty input: {what}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<ParamError> for ModelError {
    fn from(e: ParamError) -> Self {
        ModelError::Param(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = ModelError::InvalidRate { what: "storm rate", value: -1.0 };
        assert!(e.to_string().contains("storm rate"));
        assert!(ModelError::Empty("faults").to_string().contains("faults"));
    }
}
