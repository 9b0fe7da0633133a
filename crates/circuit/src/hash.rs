//! Stable 128-bit content hashing of circuits — the identity half of the
//! compile-service cache key.
//!
//! [`circuit_content_hash`] folds everything that determines compilation
//! output — register widths and, per gate in program order: kind, operand
//! qubits, bit-exact rotation parameters (`-0.0` normalized to `0.0`, the
//! same rule [`GateTable`] interning uses), measurement target, and
//! condition bit. Nothing else enters the hash, so it is
//!
//! * **stable across parse → emit → re-parse** — OpenQASM text carries
//!   exactly the hashed fields, and Rust's shortest-round-trip `f64`
//!   formatting reproduces parameters bit-for-bit;
//! * **independent of interning order** — [`stream_content_hash`] walks a
//!   program stream of [`GateId`]s through the arena accessors, so two
//!   tables interning the same program after different warm-up traffic
//!   hash identically;
//! * **sensitive to any semantic edit** — changing one gate kind, operand,
//!   or parameter anywhere in the program changes the hash (two
//!   independently-seeded FNV-1a streams make silent 64-bit collisions a
//!   ~2⁻¹²⁸ event).
//!
//! ```
//! use dqc_circuit::{circuit_content_hash, Circuit, Gate, QubitId};
//! let q = QubitId::new;
//! let mut a = Circuit::new(2);
//! a.push(Gate::cx(q(0), q(1))).unwrap();
//! let mut b = Circuit::new(2);
//! b.push(Gate::cx(q(1), q(0))).unwrap();
//! assert_ne!(circuit_content_hash(&a), circuit_content_hash(&b));
//! assert_eq!(circuit_content_hash(&a).to_string().len(), 32);
//! ```

use std::fmt;

use crate::{CBitId, Circuit, Gate, GateId, GateKind, GateTable};

/// A 128-bit circuit content hash, displayed as 32 lower-case hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash {
    hi: u64,
    lo: u64,
}

impl ContentHash {
    /// The raw `(hi, lo)` words.
    pub fn to_words(self) -> (u64, u64) {
        (self.hi, self.lo)
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Two independently-seeded FNV-1a streams absorbing the same word
/// sequence. One 64-bit stream is collision-prone at service scale
/// (birthday bound ~2³² keys); the pair is not.
struct ContentHasher {
    hi: u64,
    lo: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Second-stream seed: the golden-ratio constant already used as the
/// table's qubit/param separator, reused here as an offset basis.
const HI_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15;

impl ContentHasher {
    fn new() -> Self {
        ContentHasher { hi: HI_OFFSET, lo: FNV_OFFSET }
    }

    fn absorb(&mut self, v: u64) {
        self.lo = (self.lo ^ v).wrapping_mul(FNV_PRIME);
        self.hi = (self.hi ^ v.rotate_left(32)).wrapping_mul(FNV_PRIME);
    }

    fn absorb_gate_fields(
        &mut self,
        kind: GateKind,
        qubits: impl Iterator<Item = usize>,
        params: &[f64],
        cbit: Option<usize>,
        condition: Option<usize>,
    ) {
        self.absorb(kind_code(kind));
        for q in qubits {
            self.absorb(q as u64 + 1);
        }
        // Separates the variadic qubit list from the parameter list so
        // (qubits=[1], params=[]) never aliases (qubits=[], params=…).
        self.absorb(HI_OFFSET);
        for p in params {
            // Normalize -0.0 to 0.0, matching `GateTable` interning.
            self.absorb((p + 0.0).to_bits());
        }
        self.absorb(bit_code(cbit));
        self.absorb(bit_code(condition));
    }

    fn finish(&self) -> ContentHash {
        ContentHash { hi: self.hi, lo: self.lo }
    }
}

fn bit_code(bit: Option<usize>) -> u64 {
    match bit {
        Some(b) => b as u64 + 2,
        None => 1,
    }
}

/// Stable numeric code per gate kind. Deliberately **not** the enum
/// discriminant: `GateKind` is `#[non_exhaustive]` and may be reordered,
/// but cached artifacts keyed by old hashes must not silently alias new
/// ones, so the code ↔ kind mapping is frozen here.
fn kind_code(kind: GateKind) -> u64 {
    match kind {
        GateKind::I => 1,
        GateKind::H => 2,
        GateKind::X => 3,
        GateKind::Y => 4,
        GateKind::Z => 5,
        GateKind::S => 6,
        GateKind::Sdg => 7,
        GateKind::T => 8,
        GateKind::Tdg => 9,
        GateKind::Sx => 10,
        GateKind::Rx => 11,
        GateKind::Ry => 12,
        GateKind::Rz => 13,
        GateKind::Phase => 14,
        GateKind::U3 => 15,
        GateKind::Cx => 16,
        GateKind::Cz => 17,
        GateKind::Swap => 18,
        GateKind::Crz => 19,
        GateKind::Cp => 20,
        GateKind::Rzz => 21,
        GateKind::Ccx => 22,
        GateKind::Mcx => 23,
        GateKind::Measure => 24,
        GateKind::Reset => 25,
        GateKind::Barrier => 26,
        // No catch-all: a newly added kind must fail to compile here until
        // it gets a frozen code, rather than hash-collide with an old one.
    }
}

fn absorb_header(h: &mut ContentHasher, num_qubits: usize, num_cbits: usize, gates: usize) {
    h.absorb(num_qubits as u64);
    h.absorb(num_cbits as u64);
    h.absorb(gates as u64);
}

fn cbit_index(bit: Option<CBitId>) -> Option<usize> {
    bit.map(|c| c.index())
}

/// Content hash of a circuit: register widths plus every gate in program
/// order (see the module docs for the exact field set).
pub fn circuit_content_hash(circuit: &Circuit) -> ContentHash {
    let mut h = ContentHasher::new();
    absorb_header(&mut h, circuit.num_qubits(), circuit.num_cbits(), circuit.len());
    for gate in circuit.gates() {
        absorb_gate(&mut h, gate);
    }
    h.finish()
}

fn absorb_gate(h: &mut ContentHasher, gate: &Gate) {
    h.absorb_gate_fields(
        gate.kind(),
        gate.qubits().iter().map(|q| q.index()),
        gate.params(),
        cbit_index(gate.cbit()),
        cbit_index(gate.condition()),
    );
}

/// Content hash of a program stream over an interned [`GateTable`] —
/// identical to [`circuit_content_hash`] of the circuit the stream spells
/// out, reading only the table's flat arenas (kind, CSR wires/params,
/// classical-bit records). Because the stream drives the walk, the hash is
/// independent of the order in which gates were interned (and of any
/// unrelated gates the table also holds).
pub fn stream_content_hash(
    table: &GateTable,
    stream: &[GateId],
    num_qubits: usize,
    num_cbits: usize,
) -> ContentHash {
    let mut h = ContentHasher::new();
    absorb_header(&mut h, num_qubits, num_cbits, stream.len());
    for &id in stream {
        h.absorb_gate_fields(
            table.kind_of(id),
            table.qubit_indices(id),
            table.params_of(id),
            table.measure_bit(id),
            table.condition_bit(id),
        );
    }
    h.finish()
}

/// Content hash of raw bytes: the same two-stream hasher fed the length,
/// then the bytes as little-endian 8-byte words (the last one
/// zero-padded). The compile service keys its QASM memo and topology files
/// with it.
pub fn bytes_content_hash(bytes: &[u8]) -> ContentHash {
    let mut h = ContentHasher::new();
    h.absorb(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.absorb(u64::from_le_bytes(word));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_qasm, to_qasm, QubitId};

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn sample() -> Circuit {
        let mut c = Circuit::with_cbits(3, 2);
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::cx(q(0), q(1))).unwrap();
        c.push(Gate::rz(0.25, q(2))).unwrap();
        c.push(Gate::measure(q(1), CBitId::new(0))).unwrap();
        c.push(Gate::x(q(2)).with_condition(CBitId::new(0))).unwrap();
        c
    }

    #[test]
    fn hash_survives_qasm_round_trip() {
        let c = sample();
        let reparsed = from_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(circuit_content_hash(&c), circuit_content_hash(&reparsed));
    }

    #[test]
    fn hash_changes_with_any_field() {
        let base = circuit_content_hash(&sample());
        let mut kind = sample();
        kind.push(Gate::h(q(0))).unwrap();
        assert_ne!(base, circuit_content_hash(&kind));

        let mut operand = Circuit::with_cbits(3, 2);
        operand.push(Gate::h(q(1))).unwrap();
        let mut other = Circuit::with_cbits(3, 2);
        other.push(Gate::h(q(0))).unwrap();
        assert_ne!(circuit_content_hash(&operand), circuit_content_hash(&other));

        let mut p1 = Circuit::new(1);
        p1.push(Gate::rz(0.5, q(0))).unwrap();
        let mut p2 = Circuit::new(1);
        p2.push(Gate::rz(0.5000001, q(0))).unwrap();
        assert_ne!(circuit_content_hash(&p1), circuit_content_hash(&p2));
    }

    #[test]
    fn bytes_hash_separates_padding_and_edits() {
        assert_ne!(bytes_content_hash(b""), bytes_content_hash(b"\0"));
        assert_ne!(bytes_content_hash(b"link 0 1\n"), bytes_content_hash(b"link 0 2\n"));
        assert_eq!(bytes_content_hash(b"nodes 3"), bytes_content_hash(b"nodes 3"));
    }

    #[test]
    fn register_widths_are_hashed() {
        assert_ne!(circuit_content_hash(&Circuit::new(3)), circuit_content_hash(&Circuit::new(4)));
        assert_ne!(
            circuit_content_hash(&Circuit::with_cbits(3, 0)),
            circuit_content_hash(&Circuit::with_cbits(3, 1))
        );
    }

    #[test]
    fn negative_zero_params_hash_like_zero() {
        let mut a = Circuit::new(1);
        a.push(Gate::rz(0.0, q(0))).unwrap();
        let mut b = Circuit::new(1);
        b.push(Gate::rz(-0.0, q(0))).unwrap();
        assert_eq!(circuit_content_hash(&a), circuit_content_hash(&b));
    }

    #[test]
    fn stream_hash_matches_circuit_hash() {
        let c = sample();
        let mut table = GateTable::new();
        let stream: Vec<GateId> = c.gates().iter().map(|g| table.intern(g)).collect();
        assert_eq!(
            stream_content_hash(&table, &stream, c.num_qubits(), c.num_cbits()),
            circuit_content_hash(&c)
        );
    }

    #[test]
    fn stream_hash_ignores_interning_order() {
        let c = sample();
        // Warm the second table with unrelated traffic and the program's
        // own gates in reverse, scrambling every interned id.
        let mut warm = GateTable::new();
        warm.intern(&Gate::ccx(q(0), q(1), q(2)));
        for g in c.gates().iter().rev() {
            warm.intern(g);
        }
        let warm_stream: Vec<GateId> = c.gates().iter().map(|g| warm.intern(g)).collect();
        let mut cold = GateTable::new();
        let cold_stream: Vec<GateId> = c.gates().iter().map(|g| cold.intern(g)).collect();
        assert_ne!(warm_stream, cold_stream, "ids differ; hashes must not");
        assert_eq!(
            stream_content_hash(&warm, &warm_stream, c.num_qubits(), c.num_cbits()),
            stream_content_hash(&cold, &cold_stream, c.num_qubits(), c.num_cbits())
        );
    }

    #[test]
    fn display_is_32_hex_digits() {
        let s = circuit_content_hash(&sample()).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
