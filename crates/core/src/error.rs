//! Typed errors for MCCATCH configuration and fitting.
//!
//! Invalid hyperparameters are *caller* conditions, not programming
//! errors: a service that accepts detection requests must be able to
//! reject a bad configuration as a value. Every public constructor
//! (`McCatch::new`, `McCatch::builder().build()`, `Params::try_resolve`)
//! returns `Result<_, McCatchError>`; only the deprecated legacy entry
//! points still panic, and they do so by unwrapping these errors.
//! `McCatch::fit` returns the same type when the data cannot be fitted
//! (distances that overflow `f64`).

use std::fmt;

/// Everything that can be wrong with a MCCATCH configuration or fit.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum McCatchError {
    /// `num_radii` (the paper's `a`) was below 2 — the radius grid needs
    /// at least `{l/2, l}`.
    InvalidNumRadii {
        /// The rejected value.
        got: usize,
    },
    /// `max_plateau_slope` (the paper's `b`) was negative or NaN.
    InvalidSlope {
        /// The rejected value.
        got: f64,
    },
    /// The index's diameter estimate of the data was infinite or NaN —
    /// finite coordinates large enough (around `1e154` and beyond) make
    /// distances overflow. The radius grid cannot be built on it, and
    /// fitting anyway would silently report no outliers.
    NonFiniteDiameter {
        /// The estimate the index reported.
        got: f64,
    },
}

impl fmt::Display for McCatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidNumRadii { got } => {
                write!(f, "num_radii (a) must be at least 2, got {got}")
            }
            Self::InvalidSlope { got } => {
                write!(f, "max_plateau_slope (b) must be non-negative, got {got}")
            }
            Self::NonFiniteDiameter { got } => write!(
                f,
                "the data's diameter estimate is {got}: distances overflow f64, \
                 rescale the coordinates"
            ),
        }
    }
}

impl std::error::Error for McCatchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_parameter() {
        assert!(McCatchError::InvalidNumRadii { got: 1 }
            .to_string()
            .contains("num_radii"));
        assert!(McCatchError::InvalidSlope { got: -0.5 }
            .to_string()
            .contains("max_plateau_slope"));
        assert!(McCatchError::NonFiniteDiameter { got: f64::INFINITY }
            .to_string()
            .contains("diameter estimate is inf"));
    }

    #[test]
    fn is_a_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(McCatchError::InvalidNumRadii { got: 0 });
        assert!(e.to_string().contains("at least 2"));
    }
}
