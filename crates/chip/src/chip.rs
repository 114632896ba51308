//! The [`Chip`] device description and its builder.

use std::collections::HashMap;
use std::fmt;

use crate::error::ChipError;
use crate::geometry::{BoundingBox, Position};
use crate::id::{CouplerId, DeviceId, QubitId};
use crate::topology::TopologyKind;

/// Default transmon (Xmon) footprint diameter in millimetres (§2.1).
pub const QUBIT_DIAMETER_MM: f64 = 0.65;

/// Role a qubit plays in an error-correction layout.
///
/// Generic chips use [`QubitRole::Generic`]; surface-code layouts
/// distinguish data qubits from X/Z parity-check (ancilla) qubits, which
/// YOUTIAO wires differently (FDM on the parity XY lines, TDM on the data
/// Z lines — §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QubitRole {
    /// An ordinary computational qubit.
    #[default]
    Generic,
    /// A surface-code data qubit.
    Data,
    /// A surface-code X-type parity-check qubit.
    AncillaX,
    /// A surface-code Z-type parity-check qubit.
    AncillaZ,
}

impl QubitRole {
    /// Returns `true` for either ancilla role.
    pub fn is_ancilla(self) -> bool {
        matches!(self, QubitRole::AncillaX | QubitRole::AncillaZ)
    }
}

/// A single transmon qubit placed on the chip.
#[derive(Debug, Clone, PartialEq)]
pub struct Qubit {
    id: QubitId,
    position: Position,
    base_frequency_ghz: f64,
    role: QubitRole,
}

impl Qubit {
    /// The qubit's id.
    pub fn id(&self) -> QubitId {
        self.id
    }

    /// The qubit's placement on the die, in millimetres.
    pub fn position(&self) -> Position {
        self.position
    }

    /// Fabrication-time base frequency in GHz (typically 4–7 GHz).
    ///
    /// The FDM frequency-allocation stage retunes qubits within ±50 MHz of
    /// this value; the base value itself is fixed at fabrication (§4.2).
    pub fn base_frequency_ghz(&self) -> f64 {
        self.base_frequency_ghz
    }

    /// The qubit's error-correction role.
    pub fn role(&self) -> QubitRole {
        self.role
    }
}

/// A tunable coupler joining two neighbouring qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct Coupler {
    id: CouplerId,
    endpoints: (QubitId, QubitId),
    position: Position,
}

impl Coupler {
    /// The coupler's id.
    pub fn id(&self) -> CouplerId {
        self.id
    }

    /// The two qubits this coupler joins, in ascending id order.
    pub fn endpoints(&self) -> (QubitId, QubitId) {
        self.endpoints
    }

    /// The coupler's placement (midpoint of its endpoints), in millimetres.
    pub fn position(&self) -> Position {
        self.position
    }

    /// Returns the other endpoint given one endpoint, or `None` if the
    /// given qubit is not an endpoint of this coupler.
    pub fn other_endpoint(&self, q: QubitId) -> Option<QubitId> {
        if self.endpoints.0 == q {
            Some(self.endpoints.1)
        } else if self.endpoints.1 == q {
            Some(self.endpoints.0)
        } else {
            None
        }
    }
}

/// An immutable, validated superconducting chip description.
///
/// A `Chip` owns its qubits and couplers and precomputes adjacency so that
/// the grouping and routing algorithms can make O(1) neighbourhood queries.
/// Construct one with [`ChipBuilder`] or the generators in
/// [`topology`](crate::topology) / [`surface`](crate::surface).
///
/// # Example
///
/// ```
/// use youtiao_chip::{ChipBuilder, Position, TopologyKind};
///
/// let chip = ChipBuilder::new("pair", TopologyKind::Custom)
///     .qubit(Position::new(0.0, 0.0))
///     .qubit(Position::new(1.0, 0.0))
///     .coupler(0u32.into(), 1u32.into())
///     .build()?;
/// assert_eq!(chip.num_qubits(), 2);
/// assert_eq!(chip.num_couplers(), 1);
/// assert!(chip.are_adjacent(0u32.into(), 1u32.into()));
/// # Ok::<(), youtiao_chip::ChipError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Chip {
    name: String,
    kind: TopologyKind,
    qubits: Vec<Qubit>,
    couplers: Vec<Coupler>,
    /// adjacency[q] = sorted neighbour qubit indices of q
    adjacency: Vec<Vec<QubitId>>,
    /// couplers_of[q] = coupler ids incident to q
    couplers_of: Vec<Vec<CouplerId>>,
    /// coupler id keyed by (min qubit, max qubit)
    coupler_lookup: HashMap<(QubitId, QubitId), CouplerId>,
}

impl Chip {
    /// Human-readable chip name (e.g. `"xmon-6x6"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The topology family this chip was generated from.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of qubits on the chip.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Number of tunable couplers on the chip.
    pub fn num_couplers(&self) -> usize {
        self.couplers.len()
    }

    /// Number of Z-controlled devices (qubits + couplers).
    ///
    /// This is the paper's `#Z line` count for a non-multiplexed
    /// (Google-style) wiring scheme.
    pub fn num_z_devices(&self) -> usize {
        self.num_qubits() + self.num_couplers()
    }

    /// Looks up a qubit by id.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::UnknownQubit`] if the id is out of range.
    pub fn qubit(&self, id: QubitId) -> Result<&Qubit, ChipError> {
        self.qubits
            .get(id.index())
            .ok_or(ChipError::UnknownQubit(id))
    }

    /// Looks up a coupler by id.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::UnknownCoupler`] if the id is out of range.
    pub fn coupler(&self, id: CouplerId) -> Result<&Coupler, ChipError> {
        self.couplers
            .get(id.index())
            .ok_or(ChipError::UnknownCoupler(id))
    }

    /// Iterates over all qubits in id order.
    pub fn qubits(&self) -> impl ExactSizeIterator<Item = &Qubit> {
        self.qubits.iter()
    }

    /// Iterates over all couplers in id order.
    pub fn couplers(&self) -> impl ExactSizeIterator<Item = &Coupler> {
        self.couplers.iter()
    }

    /// Iterates over all qubit ids in order.
    pub fn qubit_ids(&self) -> impl ExactSizeIterator<Item = QubitId> {
        (0..self.qubits.len() as u32).map(QubitId::new)
    }

    /// Iterates over all coupler ids in order.
    pub fn coupler_ids(&self) -> impl ExactSizeIterator<Item = CouplerId> {
        (0..self.couplers.len() as u32).map(CouplerId::new)
    }

    /// Iterates over all Z-controlled device ids: qubits first, then couplers.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.qubit_ids()
            .map(DeviceId::Qubit)
            .chain(self.coupler_ids().map(DeviceId::Coupler))
    }

    /// Neighbouring qubits of `q` (qubits joined to it by a coupler).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn neighbors(&self, q: QubitId) -> &[QubitId] {
        &self.adjacency[q.index()]
    }

    /// Couplers incident to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn couplers_of(&self, q: QubitId) -> &[CouplerId] {
        &self.couplers_of[q.index()]
    }

    /// Connectivity (coupler degree) of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn connectivity(&self, q: QubitId) -> usize {
        self.adjacency[q.index()].len()
    }

    /// Returns the coupler joining `a` and `b`, if any.
    pub fn coupler_between(&self, a: QubitId, b: QubitId) -> Option<CouplerId> {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.coupler_lookup.get(&key).copied()
    }

    /// Returns `true` when `a` and `b` share a coupler.
    pub fn are_adjacent(&self, a: QubitId, b: QubitId) -> bool {
        self.coupler_between(a, b).is_some()
    }

    /// Euclidean (physical) distance between two qubits, in millimetres.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn physical_distance(&self, a: QubitId, b: QubitId) -> f64 {
        self.qubits[a.index()]
            .position
            .distance_to(self.qubits[b.index()].position)
    }

    /// Position of an arbitrary device (qubit or coupler).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn device_position(&self, d: DeviceId) -> Position {
        match d {
            DeviceId::Qubit(q) => self.qubits[q.index()].position,
            DeviceId::Coupler(c) => self.couplers[c.index()].position,
        }
    }

    /// Bounding box of all qubit positions.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::of(self.qubits.iter().map(|q| q.position))
            .expect("chip is validated non-empty")
    }

    /// Qubit ids having the given role.
    pub fn qubits_with_role(&self, role: QubitRole) -> Vec<QubitId> {
        self.qubits
            .iter()
            .filter(|q| q.role == role)
            .map(|q| q.id)
            .collect()
    }

    /// Returns `true` when the coupling graph is connected.
    pub fn is_connected(&self) -> bool {
        if self.qubits.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.qubits.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(i) = stack.pop() {
            for &n in &self.adjacency[i] {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    count += 1;
                    stack.push(n.index());
                }
            }
        }
        count == self.qubits.len()
    }
}

impl fmt::Display for Chip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:?}, {} qubits, {} couplers)",
            self.name,
            self.kind,
            self.num_qubits(),
            self.num_couplers()
        )
    }
}

/// Incremental builder for [`Chip`].
///
/// Qubits receive dense ids in insertion order; couplers likewise. The
/// terminal [`build`](ChipBuilder::build) validates endpoint existence,
/// rejects self-couplings and duplicate couplers, and precomputes adjacency.
#[derive(Debug, Clone)]
pub struct ChipBuilder {
    name: String,
    kind: TopologyKind,
    qubits: Vec<Qubit>,
    pending_couplers: Vec<(QubitId, QubitId)>,
}

impl ChipBuilder {
    /// Starts a new chip with the given name and topology family.
    pub fn new(name: impl Into<String>, kind: TopologyKind) -> Self {
        ChipBuilder {
            name: name.into(),
            kind,
            qubits: Vec::new(),
            pending_couplers: Vec::new(),
        }
    }

    /// Adds a qubit at `position` with a default base frequency, returning
    /// the builder for chaining. Ids are assigned densely in call order.
    pub fn qubit(mut self, position: Position) -> Self {
        self.push_qubit(position, QubitRole::Generic, None);
        self
    }

    /// Adds a qubit with an explicit role (used by surface-code layouts).
    pub fn qubit_with_role(mut self, position: Position, role: QubitRole) -> Self {
        self.push_qubit(position, role, None);
        self
    }

    /// Adds a qubit with an explicit base frequency in GHz.
    pub fn qubit_with_frequency(mut self, position: Position, freq_ghz: f64) -> Self {
        self.push_qubit(position, QubitRole::Generic, Some(freq_ghz));
        self
    }

    /// Adds a qubit with an explicit role and base frequency in GHz
    /// (how a [`crate::spec::ChipSpec`] rebuilds its qubits).
    pub fn qubit_with_role_and_frequency(
        mut self,
        position: Position,
        role: QubitRole,
        freq_ghz: f64,
    ) -> Self {
        self.push_qubit(position, role, Some(freq_ghz));
        self
    }

    /// Declares a coupler between two qubits (order irrelevant).
    pub fn coupler(mut self, a: QubitId, b: QubitId) -> Self {
        self.pending_couplers.push((a, b));
        self
    }

    /// Number of qubits added so far.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    fn push_qubit(&mut self, position: Position, role: QubitRole, freq: Option<f64>) {
        let id = QubitId::new(self.qubits.len() as u32);
        // Default base frequencies interleave across 4–7 GHz so that
        // neighbouring ids rarely collide before allocation runs.
        let base = freq.unwrap_or_else(|| {
            let i = id.index() as f64;
            4.0 + (i * 0.618_033_988_75).fract() * 3.0
        });
        self.qubits.push(Qubit {
            id,
            position,
            base_frequency_ghz: base,
            role,
        });
    }

    /// Validates and finalizes the chip.
    ///
    /// # Errors
    ///
    /// * [`ChipError::Empty`] — no qubits were added.
    /// * [`ChipError::UnknownQubit`] — a coupler references a missing qubit.
    /// * [`ChipError::SelfCoupling`] — a coupler joins a qubit to itself.
    /// * [`ChipError::DuplicateCoupler`] — two couplers join the same pair.
    pub fn build(self) -> Result<Chip, ChipError> {
        if self.qubits.is_empty() {
            return Err(ChipError::Empty);
        }
        let n = self.qubits.len();
        let mut couplers = Vec::with_capacity(self.pending_couplers.len());
        let mut adjacency: Vec<Vec<QubitId>> = vec![Vec::new(); n];
        let mut couplers_of: Vec<Vec<CouplerId>> = vec![Vec::new(); n];
        let mut coupler_lookup = HashMap::new();

        for (raw_a, raw_b) in self.pending_couplers {
            if raw_a == raw_b {
                return Err(ChipError::SelfCoupling(raw_a));
            }
            for q in [raw_a, raw_b] {
                if q.index() >= n {
                    return Err(ChipError::UnknownQubit(q));
                }
            }
            let (a, b) = if raw_a <= raw_b {
                (raw_a, raw_b)
            } else {
                (raw_b, raw_a)
            };
            let id = CouplerId::new(couplers.len() as u32);
            if coupler_lookup.insert((a, b), id).is_some() {
                return Err(ChipError::DuplicateCoupler(a, b));
            }
            let position = self.qubits[a.index()]
                .position
                .midpoint(self.qubits[b.index()].position);
            couplers.push(Coupler {
                id,
                endpoints: (a, b),
                position,
            });
            adjacency[a.index()].push(b);
            adjacency[b.index()].push(a);
            couplers_of[a.index()].push(id);
            couplers_of[b.index()].push(id);
        }
        for list in &mut adjacency {
            list.sort_unstable();
        }

        Ok(Chip {
            name: self.name,
            kind: self.kind,
            qubits: self.qubits,
            couplers,
            adjacency,
            couplers_of,
            coupler_lookup,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Chip {
        ChipBuilder::new("tri", TopologyKind::Custom)
            .qubit(Position::new(0.0, 0.0))
            .qubit(Position::new(1.0, 0.0))
            .qubit(Position::new(0.0, 1.0))
            .coupler(0u32.into(), 1u32.into())
            .coupler(1u32.into(), 2u32.into())
            .coupler(2u32.into(), 0u32.into())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let chip = triangle();
        assert_eq!(chip.num_qubits(), 3);
        assert_eq!(chip.num_couplers(), 3);
        assert_eq!(chip.num_z_devices(), 6);
        for (i, q) in chip.qubits().enumerate() {
            assert_eq!(q.id().index(), i);
        }
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let chip = triangle();
        for q in chip.qubit_ids() {
            let ns = chip.neighbors(q);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
            for &n in ns {
                assert!(chip.neighbors(n).contains(&q));
            }
        }
    }

    #[test]
    fn coupler_lookup_is_order_insensitive() {
        let chip = triangle();
        assert_eq!(
            chip.coupler_between(0u32.into(), 1u32.into()),
            chip.coupler_between(1u32.into(), 0u32.into())
        );
        assert!(chip.are_adjacent(2u32.into(), 0u32.into()));
    }

    #[test]
    fn coupler_position_is_midpoint() {
        let chip = triangle();
        let c = chip.coupler_between(0u32.into(), 1u32.into()).unwrap();
        let coupler = chip.coupler(c).unwrap();
        assert_eq!(coupler.position(), Position::new(0.5, 0.0));
        assert_eq!(coupler.other_endpoint(0u32.into()), Some(1u32.into()));
        assert_eq!(coupler.other_endpoint(1u32.into()), Some(0u32.into()));
        assert_eq!(coupler.other_endpoint(2u32.into()), None);
    }

    #[test]
    fn empty_chip_rejected() {
        let err = ChipBuilder::new("e", TopologyKind::Custom)
            .build()
            .unwrap_err();
        assert_eq!(err, ChipError::Empty);
    }

    #[test]
    fn self_coupling_rejected() {
        let err = ChipBuilder::new("s", TopologyKind::Custom)
            .qubit(Position::new(0.0, 0.0))
            .coupler(0u32.into(), 0u32.into())
            .build()
            .unwrap_err();
        assert_eq!(err, ChipError::SelfCoupling(QubitId::new(0)));
    }

    #[test]
    fn duplicate_coupler_rejected() {
        let err = ChipBuilder::new("d", TopologyKind::Custom)
            .qubit(Position::new(0.0, 0.0))
            .qubit(Position::new(1.0, 0.0))
            .coupler(0u32.into(), 1u32.into())
            .coupler(1u32.into(), 0u32.into())
            .build()
            .unwrap_err();
        assert_eq!(err, ChipError::DuplicateCoupler(0u32.into(), 1u32.into()));
    }

    #[test]
    fn unknown_qubit_rejected() {
        let err = ChipBuilder::new("u", TopologyKind::Custom)
            .qubit(Position::new(0.0, 0.0))
            .coupler(0u32.into(), 7u32.into())
            .build()
            .unwrap_err();
        assert_eq!(err, ChipError::UnknownQubit(QubitId::new(7)));
    }

    #[test]
    fn physical_distance_matches_geometry() {
        let chip = triangle();
        assert!((chip.physical_distance(0u32.into(), 1u32.into()) - 1.0).abs() < 1e-12);
        assert!((chip.physical_distance(1u32.into(), 2u32.into()) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn connectivity_counts_neighbors() {
        let chip = triangle();
        for q in chip.qubit_ids() {
            assert_eq!(chip.connectivity(q), 2);
        }
    }

    #[test]
    fn connectedness() {
        let chip = triangle();
        assert!(chip.is_connected());
        let disconnected = ChipBuilder::new("x", TopologyKind::Custom)
            .qubit(Position::new(0.0, 0.0))
            .qubit(Position::new(1.0, 0.0))
            .build()
            .unwrap();
        assert!(!disconnected.is_connected());
    }

    #[test]
    fn base_frequencies_in_band() {
        let chip = triangle();
        for q in chip.qubits() {
            assert!(q.base_frequency_ghz() >= 4.0 && q.base_frequency_ghz() <= 7.0);
        }
    }

    #[test]
    fn device_ids_cover_qubits_then_couplers() {
        let chip = triangle();
        let devices: Vec<_> = chip.device_ids().collect();
        assert_eq!(devices.len(), 6);
        assert!(devices[..3].iter().all(|d| d.is_qubit()));
        assert!(devices[3..].iter().all(|d| d.is_coupler()));
    }

    #[test]
    fn roles_filter() {
        let chip = ChipBuilder::new("r", TopologyKind::Custom)
            .qubit_with_role(Position::new(0.0, 0.0), QubitRole::Data)
            .qubit_with_role(Position::new(1.0, 0.0), QubitRole::AncillaX)
            .build()
            .unwrap();
        assert_eq!(
            chip.qubits_with_role(QubitRole::Data),
            vec![QubitId::new(0)]
        );
        assert!(QubitRole::AncillaX.is_ancilla());
        assert!(!QubitRole::Data.is_ancilla());
    }
}
