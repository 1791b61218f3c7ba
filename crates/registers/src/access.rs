//! The serialized shared-memory model of the paper's §2.
//!
//! Atomicity of a register means that any set of overlapping reads and writes
//! is equivalent to some total order of the operations; the paper then argues
//! that an *entire system execution* can be serialized, so that without loss
//! of generality every operation happens at a distinct time instant. This
//! module is that serialized model made executable: [`SharedMemory`] applies
//! one operation at a time, and every register carries a declared writer and
//! reader set which is enforced on every access.
//!
//! The worst-case choice of *which* serialization occurs is not made here —
//! it is exactly the adversary scheduler's job, implemented in `cil-sim`.

use std::error::Error;
use std::fmt;

/// Identifier of a processor, `0..n`.
///
/// The paper writes processors as `P_1 .. P_n`; we index from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(pub usize);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for Pid {
    fn from(i: usize) -> Self {
        Pid(i)
    }
}

/// Identifier of a shared register within a [`SharedMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegId(pub usize);

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<usize> for RegId {
    fn from(i: usize) -> Self {
        RegId(i)
    }
}

/// The set of processors allowed to read a register.
///
/// The paper associates with every register `r` a reader set `R_r` and a
/// writer set `W_r`. All of the paper's protocols need only single-writer
/// registers, so the writer is a single [`Pid`] in [`RegisterSpec`]; reader
/// sets vary between single-reader (§4, and the "full paper" variants) and
/// two-reader (§5, §6) registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReaderSet {
    /// Every processor may read (1-writer n-reader register).
    All,
    /// Only the listed processors may read.
    Only(Vec<Pid>),
}

impl ReaderSet {
    /// Builds a restricted reader set from any collection of pids.
    ///
    /// ```
    /// use cil_registers::{ReaderSet, Pid};
    /// let rs = ReaderSet::only([Pid(1), Pid(2)]);
    /// assert!(rs.allows(Pid(1)) && !rs.allows(Pid(0)));
    /// ```
    pub fn only<I: IntoIterator<Item = Pid>>(pids: I) -> Self {
        ReaderSet::Only(pids.into_iter().collect())
    }

    /// Whether `pid` is allowed to read.
    #[inline]
    pub fn allows(&self, pid: Pid) -> bool {
        match self {
            ReaderSet::All => true,
            ReaderSet::Only(set) => set.contains(&pid),
        }
    }
}

/// Static description of one shared register: identity, single writer,
/// reader set, declared bit width and initial contents.
///
/// In every initial configuration of the paper all shared registers contain
/// the default value ⊥; the `init` field is that default, expressed in the
/// register's value domain.
#[derive(Debug, Clone)]
pub struct RegisterSpec<V> {
    /// Identifier; must equal the register's index in the memory.
    pub id: RegId,
    /// Human-readable name used in traces (e.g. `"r0"`).
    pub name: String,
    /// The unique processor allowed to write.
    pub writer: Pid,
    /// The processors allowed to read.
    pub readers: ReaderSet,
    /// Declared bit width of the register (`1..=64`).
    ///
    /// The paper's registers are *bounded size*; this field is the bound.
    /// Every value the owner may write must pack (see
    /// [`Packable`](crate::Packable)) into this many bits — a whole-protocol
    /// guarantee checked statically by `cil-audit`, and the substance of the
    /// R2 claim that single *bit-sized* 1W1R registers suffice. Defaults to
    /// a full machine word (64); narrow it with
    /// [`with_width`](RegisterSpec::with_width).
    pub width_bits: u32,
    /// Initial contents (the paper's ⊥).
    pub init: V,
}

impl<V> RegisterSpec<V> {
    /// Creates a new register description with the default full-word width.
    pub fn new(
        id: RegId,
        name: impl Into<String>,
        writer: Pid,
        readers: ReaderSet,
        init: V,
    ) -> Self {
        RegisterSpec {
            id,
            name: name.into(),
            writer,
            readers,
            width_bits: 64,
            init,
        }
    }

    /// Declares the register's bounded bit width (`1..=64`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or exceeds 64.
    pub fn with_width(mut self, bits: u32) -> Self {
        assert!(
            (1..=64).contains(&bits),
            "register width must be 1..=64 bits, got {bits}"
        );
        self.width_bits = bits;
        self
    }

    /// The largest word value representable at the declared width.
    pub fn max_word(&self) -> u64 {
        if self.width_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width_bits) - 1
        }
    }
}

/// Error returned when an operation violates the declared access structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// The register id does not exist in this memory.
    UnknownRegister(RegId),
    /// A processor attempted to write a register it does not own.
    NotWriter {
        /// Offending processor.
        pid: Pid,
        /// Register it tried to write.
        reg: RegId,
        /// The register's actual writer.
        owner: Pid,
    },
    /// A processor attempted to read a register outside its reader set.
    NotReader {
        /// Offending processor.
        pid: Pid,
        /// Register it tried to read.
        reg: RegId,
    },
    /// Register specs were inconsistent (duplicate or out-of-order ids).
    BadSpec(String),
    /// A stored word does not fit the register's declared bit width.
    ///
    /// Only raised by word-level backends ([`crate::HwRegisterFile`]); the
    /// typed [`SharedMemory`] stores values, not words, so widths are checked
    /// statically by `cil-audit` instead.
    WidthOverflow {
        /// Register whose width was exceeded.
        reg: RegId,
        /// The offending word.
        word: u64,
        /// The register's declared width in bits.
        width_bits: u32,
    },
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::UnknownRegister(r) => write!(f, "unknown register {r}"),
            AccessError::NotWriter { pid, reg, owner } => {
                write!(f, "{pid} is not the writer of {reg} (owner {owner})")
            }
            AccessError::NotReader { pid, reg } => {
                write!(f, "{pid} is not in the reader set of {reg}")
            }
            AccessError::BadSpec(msg) => write!(f, "bad register specification: {msg}"),
            AccessError::WidthOverflow {
                reg,
                word,
                width_bits,
            } => {
                write!(
                    f,
                    "word {word:#x} does not fit {reg}'s declared width of {width_bits} bits"
                )
            }
        }
    }
}

impl Error for AccessError {}

/// A serialized shared memory: an array of single-writer registers with
/// runtime-enforced access control.
///
/// One call to [`read`](SharedMemory::read) or [`write`](SharedMemory::write)
/// corresponds to one atomic operation of the paper's model — one *step*
/// (§2: "each step consists of a single input/output operation").
#[derive(Debug, Clone)]
pub struct SharedMemory<V> {
    specs: Vec<RegisterSpec<V>>,
    cells: Vec<V>,
    ops: u64,
}

impl<V: Clone> SharedMemory<V> {
    /// Builds a memory from register descriptions.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::BadSpec`] if ids are duplicated or do not match
    /// their index.
    pub fn new(specs: Vec<RegisterSpec<V>>) -> Result<Self, AccessError> {
        // An id that equals its index is unique, so this check also
        // rejects duplicated ids.
        for (i, s) in specs.iter().enumerate() {
            if s.id.0 != i {
                return Err(AccessError::BadSpec(format!(
                    "register '{}' has id {} but index {i}",
                    s.name, s.id
                )));
            }
            if s.width_bits == 0 || s.width_bits > 64 {
                return Err(AccessError::BadSpec(format!(
                    "register '{}' declares width {} (must be 1..=64 bits)",
                    s.name, s.width_bits
                )));
            }
        }
        let cells = specs.iter().map(|s| s.init.clone()).collect();
        Ok(SharedMemory {
            specs,
            cells,
            ops: 0,
        })
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the memory has no registers.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The register descriptions this memory was built from.
    pub fn specs(&self) -> &[RegisterSpec<V>] {
        &self.specs
    }

    /// Raw view of all register contents, indexed by [`RegId`].
    ///
    /// This is the omniscient view the paper grants the adversary scheduler
    /// ("complete knowledge on both registers' contents and processors'
    /// internal states"); protocols themselves must go through
    /// [`read`](SharedMemory::read).
    pub fn snapshot(&self) -> &[V] {
        &self.cells
    }

    /// Total number of operations (reads + writes) applied so far.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Atomically reads register `reg` on behalf of processor `pid`.
    ///
    /// # Errors
    ///
    /// [`AccessError::NotReader`] if `pid` is outside the reader set,
    /// [`AccessError::UnknownRegister`] if `reg` does not exist.
    pub fn read(&mut self, pid: Pid, reg: RegId) -> Result<&V, AccessError> {
        let spec = self
            .specs
            .get(reg.0)
            .ok_or(AccessError::UnknownRegister(reg))?;
        if !spec.readers.allows(pid) {
            return Err(AccessError::NotReader { pid, reg });
        }
        self.ops += 1;
        Ok(&self.cells[reg.0])
    }

    /// Atomically writes `value` into register `reg` on behalf of `pid`.
    ///
    /// Returns the previous contents (useful for traces).
    ///
    /// # Errors
    ///
    /// [`AccessError::NotWriter`] if `pid` does not own the register,
    /// [`AccessError::UnknownRegister`] if `reg` does not exist.
    pub fn write(&mut self, pid: Pid, reg: RegId, value: V) -> Result<V, AccessError> {
        let spec = self
            .specs
            .get(reg.0)
            .ok_or(AccessError::UnknownRegister(reg))?;
        if spec.writer != pid {
            return Err(AccessError::NotWriter {
                pid,
                reg,
                owner: spec.writer,
            });
        }
        self.ops += 1;
        Ok(std::mem::replace(&mut self.cells[reg.0], value))
    }

    /// Resets every register to its initial contents and zeroes the op count.
    pub fn reset(&mut self) {
        for (cell, spec) in self.cells.iter_mut().zip(&self.specs) {
            *cell = spec.init.clone();
        }
        self.ops = 0;
    }
}

/// Convenience: builds the canonical one-register-per-processor layout used
/// by all of the paper's protocols (register `i` is written by `P_i`).
///
/// `readers(i)` gives the reader set of processor `i`'s register.
///
/// ```
/// use cil_registers::{access::per_process_registers, ReaderSet, Pid};
/// // §5 layout: 1-writer 2-reader registers for three processors.
/// let specs = per_process_registers(3, 0u32, |_| ReaderSet::All);
/// assert_eq!(specs.len(), 3);
/// assert_eq!(specs[2].writer, Pid(2));
/// ```
pub fn per_process_registers<V: Clone>(
    n: usize,
    init: V,
    readers: impl Fn(usize) -> ReaderSet,
) -> Vec<RegisterSpec<V>> {
    (0..n)
        .map(|i| RegisterSpec::new(RegId(i), format!("r{i}"), Pid(i), readers(i), init.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_reg_memory() -> SharedMemory<u8> {
        let specs = vec![
            RegisterSpec::new(RegId(0), "r0", Pid(0), ReaderSet::only([Pid(1)]), 0),
            RegisterSpec::new(RegId(1), "r1", Pid(1), ReaderSet::only([Pid(0)]), 0),
        ];
        SharedMemory::new(specs).unwrap()
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut mem = two_reg_memory();
        let prev = mem.write(Pid(0), RegId(0), 42).unwrap();
        assert_eq!(prev, 0);
        assert_eq!(*mem.read(Pid(1), RegId(0)).unwrap(), 42);
    }

    #[test]
    fn writer_exclusivity_is_enforced() {
        let mut mem = two_reg_memory();
        let err = mem.write(Pid(1), RegId(0), 1).unwrap_err();
        assert_eq!(
            err,
            AccessError::NotWriter {
                pid: Pid(1),
                reg: RegId(0),
                owner: Pid(0)
            }
        );
    }

    #[test]
    fn reader_set_is_enforced() {
        let mut mem = two_reg_memory();
        // P0 is not in the reader set of its own register r0 (1W1R layout).
        let err = mem.read(Pid(0), RegId(0)).unwrap_err();
        assert_eq!(
            err,
            AccessError::NotReader {
                pid: Pid(0),
                reg: RegId(0)
            }
        );
    }

    #[test]
    fn unknown_register_is_an_error() {
        let mut mem = two_reg_memory();
        assert_eq!(
            mem.read(Pid(0), RegId(9)).unwrap_err(),
            AccessError::UnknownRegister(RegId(9))
        );
        assert_eq!(
            mem.write(Pid(0), RegId(9), 0).unwrap_err(),
            AccessError::UnknownRegister(RegId(9))
        );
    }

    #[test]
    fn mismatched_ids_are_rejected() {
        let specs = vec![RegisterSpec::new(
            RegId(5),
            "bad",
            Pid(0),
            ReaderSet::All,
            0u8,
        )];
        assert!(matches!(
            SharedMemory::new(specs),
            Err(AccessError::BadSpec(_))
        ));
    }

    #[test]
    fn duplicated_ids_are_rejected() {
        let spec = |name| RegisterSpec::new(RegId(0), name, Pid(0), ReaderSet::All, 0u8);
        assert!(matches!(
            SharedMemory::new(vec![spec("first"), spec("second")]),
            Err(AccessError::BadSpec(_))
        ));
    }

    #[test]
    fn op_count_tracks_reads_and_writes() {
        let mut mem = two_reg_memory();
        mem.write(Pid(0), RegId(0), 1).unwrap();
        mem.read(Pid(1), RegId(0)).unwrap();
        mem.read(Pid(1), RegId(0)).unwrap();
        assert_eq!(mem.op_count(), 3);
    }

    #[test]
    fn reset_restores_initial_contents() {
        let mut mem = two_reg_memory();
        mem.write(Pid(0), RegId(0), 7).unwrap();
        mem.reset();
        assert_eq!(mem.snapshot(), &[0, 0]);
        assert_eq!(mem.op_count(), 0);
    }

    #[test]
    fn per_process_layout_assigns_writers() {
        let specs = per_process_registers(4, 0u8, |i| {
            ReaderSet::only((0..4).filter(|&j| j != i).map(Pid))
        });
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.writer, Pid(i));
            assert!(!s.readers.allows(Pid(i)));
        }
    }

    #[test]
    fn all_reader_set_allows_everyone() {
        assert!(ReaderSet::All.allows(Pid(17)));
    }

    #[test]
    fn width_declaration_round_trips() {
        let s = RegisterSpec::new(RegId(0), "r0", Pid(0), ReaderSet::All, 0u8);
        assert_eq!(s.width_bits, 64);
        assert_eq!(s.max_word(), u64::MAX);
        let narrow = s.with_width(2);
        assert_eq!(narrow.width_bits, 2);
        assert_eq!(narrow.max_word(), 3);
    }

    #[test]
    fn zero_width_spec_is_rejected() {
        let mut s = RegisterSpec::new(RegId(0), "r0", Pid(0), ReaderSet::All, 0u8);
        s.width_bits = 0; // bypass the with_width assertion
        assert!(matches!(
            SharedMemory::new(vec![s]),
            Err(AccessError::BadSpec(_))
        ));
    }

    #[test]
    #[should_panic(expected = "width must be 1..=64")]
    fn oversized_width_panics_in_builder() {
        let _ = RegisterSpec::new(RegId(0), "r0", Pid(0), ReaderSet::All, 0u8).with_width(65);
    }
}
