//! Error type for wiring-plan construction.

use std::error::Error;
use std::fmt;

use youtiao_chip::QubitId;
use youtiao_noise::FitError;

/// Errors produced while building a wiring plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// A configuration knob had an invalid value.
    InvalidConfig(&'static str),
    /// Frequency allocation ran out of cells even after applying the
    /// crowded-reuse rule.
    FrequencyCrowded {
        /// The qubit that could not be placed.
        qubit: QubitId,
    },
    /// The chip has no qubits to plan for.
    EmptyChip,
    /// The crosstalk model could not be fitted to the chip's
    /// characterization data (too few qubit pairs for cross-validation).
    /// The chip's shape decides it, not the seed.
    Characterize(FitError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            PlanError::FrequencyCrowded { qubit } => {
                write!(f, "no frequency cell available for {qubit}")
            }
            PlanError::EmptyChip => write!(f, "chip has no qubits"),
            PlanError::Characterize(e) => write!(f, "characterization failed: {e}"),
        }
    }
}

impl Error for PlanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanError::Characterize(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert!(PlanError::InvalidConfig("capacity")
            .to_string()
            .contains("capacity"));
        assert!(PlanError::FrequencyCrowded {
            qubit: QubitId::new(3)
        }
        .to_string()
        .contains("q3"));
        assert!(!PlanError::EmptyChip.to_string().is_empty());
        let fit = PlanError::Characterize(FitError::NotEnoughSamples {
            available: 2,
            required: 5,
        });
        assert!(fit.to_string().starts_with("characterization failed: "));
        assert!(fit.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanError>();
    }
}
