//! Serializable chip descriptions.
//!
//! [`ChipSpec`] is a plain-data mirror of [`Chip`] suitable for storing
//! device descriptions on disk (with the `serde` feature, as JSON or any
//! serde format) and for loading *real* chip layouts into the YOUTIAO
//! pipeline in place of the built-in generators.

use crate::chip::{Chip, ChipBuilder, QubitRole};
use crate::error::ChipError;
use crate::geometry::Position;
use crate::topology::TopologyKind;

/// One qubit of a [`ChipSpec`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QubitSpec {
    /// Placement on the die, millimetres.
    pub x: f64,
    /// Placement on the die, millimetres.
    pub y: f64,
    /// Fabrication base frequency, GHz.
    pub base_frequency_ghz: f64,
    /// Error-correction role (`"generic"`, `"data"`, `"ancilla_x"`,
    /// `"ancilla_z"`).
    pub role: String,
}

/// A plain-data chip description.
///
/// # Example
///
/// ```
/// use youtiao_chip::spec::ChipSpec;
/// use youtiao_chip::topology;
///
/// let chip = topology::square_grid(2, 2);
/// let spec = ChipSpec::from_chip(&chip);
/// let back = spec.to_chip()?;
/// assert_eq!(back.num_qubits(), 4);
/// assert_eq!(back.num_couplers(), 4);
/// # Ok::<(), youtiao_chip::ChipError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChipSpec {
    /// Chip name.
    pub name: String,
    /// Qubits in id order.
    pub qubits: Vec<QubitSpec>,
    /// Couplers as `(qubit, qubit)` index pairs.
    pub couplers: Vec<(u32, u32)>,
}

impl ChipSpec {
    /// Extracts a spec from a built chip.
    pub fn from_chip(chip: &Chip) -> Self {
        ChipSpec {
            name: chip.name().to_string(),
            qubits: chip
                .qubits()
                .map(|q| QubitSpec {
                    x: q.position().x,
                    y: q.position().y,
                    base_frequency_ghz: q.base_frequency_ghz(),
                    role: role_name(q.role()).to_string(),
                })
                .collect(),
            couplers: chip
                .couplers()
                .map(|c| {
                    let (a, b) = c.endpoints();
                    (a.value(), b.value())
                })
                .collect(),
        }
    }

    /// Builds a validated [`Chip`] from the spec.
    ///
    /// Role strings are parsed **strictly**: an unrecognized role is a
    /// [`ChipError::UnknownRole`], so a typo in a hand-written (e.g.
    /// multi-die) spec surfaces instead of silently planning the qubit
    /// as [`QubitRole::Generic`]. The documented lenient fallback lives
    /// behind [`to_chip_lenient`](Self::to_chip_lenient).
    ///
    /// # Errors
    ///
    /// Propagates [`ChipError`] for empty specs, dangling coupler
    /// indices, self-couplings, duplicate couplers or unknown roles.
    pub fn to_chip(&self) -> Result<Chip, ChipError> {
        self.build_chip(false)
    }

    /// [`to_chip`](Self::to_chip) with the legacy lenient role
    /// handling: unrecognized role strings fall back to
    /// [`QubitRole::Generic`] instead of erroring.
    ///
    /// # Errors
    ///
    /// Propagates every [`ChipError`] except `UnknownRole`.
    pub fn to_chip_lenient(&self) -> Result<Chip, ChipError> {
        self.build_chip(true)
    }

    fn build_chip(&self, lenient: bool) -> Result<Chip, ChipError> {
        let mut b = ChipBuilder::new(self.name.clone(), TopologyKind::Custom);
        for q in &self.qubits {
            let role = match parse_role(&q.role) {
                Some(role) => role,
                None if lenient => QubitRole::Generic,
                None => return Err(ChipError::UnknownRole(q.role.clone())),
            };
            b = b.qubit_with_role_and_frequency(
                Position::new(q.x, q.y),
                role,
                q.base_frequency_ghz,
            );
        }
        for &(a, z) in &self.couplers {
            b = b.coupler(a.into(), z.into());
        }
        b.build()
    }
}

fn role_name(role: QubitRole) -> &'static str {
    match role {
        QubitRole::Generic => "generic",
        QubitRole::Data => "data",
        QubitRole::AncillaX => "ancilla_x",
        QubitRole::AncillaZ => "ancilla_z",
    }
}

fn parse_role(s: &str) -> Option<QubitRole> {
    match s {
        "generic" => Some(QubitRole::Generic),
        "data" => Some(QubitRole::Data),
        "ancilla_x" => Some(QubitRole::AncillaX),
        "ancilla_z" => Some(QubitRole::AncillaZ),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn roundtrip_preserves_structure() {
        for chip in topology::paper_suite() {
            let spec = ChipSpec::from_chip(&chip);
            let back = spec.to_chip().unwrap();
            assert_eq!(back.num_qubits(), chip.num_qubits());
            assert_eq!(back.num_couplers(), chip.num_couplers());
            for (a, b) in chip.qubits().zip(back.qubits()) {
                assert_eq!(a.position(), b.position());
            }
            for (a, b) in chip.couplers().zip(back.couplers()) {
                assert_eq!(a.endpoints(), b.endpoints());
            }
        }
    }

    #[test]
    fn roundtrip_preserves_roles() {
        let code = crate::surface::SurfaceCode::rotated(3);
        let spec = ChipSpec::from_chip(code.chip());
        let back = spec.to_chip().unwrap();
        for (a, b) in code.chip().qubits().zip(back.qubits()) {
            assert_eq!(a.role(), b.role());
        }
    }

    #[test]
    fn roundtrip_preserves_frequencies_and_roles() {
        // Base frequencies away from the builder's index defaults, on a
        // layout with every ancilla role.
        let code = crate::surface::SurfaceCode::rotated(3);
        let mut spec = ChipSpec::from_chip(code.chip());
        for (i, q) in spec.qubits.iter_mut().enumerate() {
            q.base_frequency_ghz = 4.25 + 0.125 * i as f64;
        }
        assert_eq!(ChipSpec::from_chip(&spec.to_chip().unwrap()), spec);
        assert_eq!(ChipSpec::from_chip(&spec.to_chip_lenient().unwrap()), spec);
        // A generator chip comes back bit for bit.
        for chip in topology::paper_suite() {
            let spec = ChipSpec::from_chip(&chip);
            for (a, b) in chip.qubits().zip(spec.to_chip().unwrap().qubits()) {
                assert_eq!(
                    a.base_frequency_ghz().to_bits(),
                    b.base_frequency_ghz().to_bits()
                );
            }
        }
    }

    #[test]
    fn invalid_spec_rejected() {
        let spec = ChipSpec {
            name: "bad".into(),
            qubits: vec![QubitSpec {
                x: 0.0,
                y: 0.0,
                base_frequency_ghz: 5.0,
                role: "generic".into(),
            }],
            couplers: vec![(0, 9)],
        };
        assert!(spec.to_chip().is_err());
        let empty = ChipSpec {
            name: "e".into(),
            qubits: vec![],
            couplers: vec![],
        };
        assert!(matches!(empty.to_chip(), Err(ChipError::Empty)));
    }

    #[test]
    fn unknown_role_falls_back_to_generic() {
        let spec = ChipSpec {
            name: "r".into(),
            qubits: vec![QubitSpec {
                x: 0.0,
                y: 0.0,
                base_frequency_ghz: 5.0,
                role: "mystery".into(),
            }],
            couplers: vec![],
        };
        // Strict mode (the default): a typo'd role is a structured error
        // naming the offending string.
        match spec.to_chip() {
            Err(ChipError::UnknownRole(role)) => assert_eq!(role, "mystery"),
            other => panic!("expected UnknownRole, got {other:?}"),
        }
        // The documented fallback only applies in explicit lenient mode.
        let chip = spec.to_chip_lenient().unwrap();
        assert_eq!(chip.qubit(0u32.into()).unwrap().role(), QubitRole::Generic);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn json_roundtrip() {
        // Grid coordinates are exactly representable, so the roundtrip is
        // bit-exact (serde_json's default float parsing is last-ULP lossy
        // on denormal-ish values without its `float_roundtrip` feature).
        let chip = topology::square_grid(2, 3);
        let spec = ChipSpec::from_chip(&chip);
        let json = serde_json::to_string(&spec).unwrap();
        let parsed: ChipSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_chip().unwrap().num_qubits(), chip.num_qubits());
    }
}
