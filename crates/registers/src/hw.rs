//! Real-hardware register backend over [`std::sync::atomic::AtomicU64`].
//!
//! The paper's closing claim is that its model "is implementable in existing
//! technology". On any modern machine a single aligned word already *is* an
//! atomic multi-reader multi-writer register — strictly stronger than the
//! bounded 1W1R registers the protocols need. Every register used by the
//! paper's protocols packs into one `u64` (see [`Packable`]), so
//! [`HwRegisterFile`] can host any workspace protocol on real OS threads
//! (driven by `cil-sim`'s thread executor).
//!
//! Note the deliberate restriction: the API exposes **only** `load` and
//! `store` — no compare-and-swap, no fetch-and-add — because the paper's
//! model has atomic reads and writes but *no test-and-set*.

use crate::access::{AccessError, Pid, RegId, RegisterSpec};
use std::sync::atomic::{AtomicU64, Ordering};

/// Values that fit into one machine word, so they can live in a real
/// hardware register cell.
///
/// Implementations must round-trip: `Self::unpack(v.pack()) == v`.
pub trait Packable: Sized + Clone {
    /// Encodes the value into a word.
    fn pack(&self) -> u64;
    /// Decodes a word produced by [`pack`](Packable::pack).
    fn unpack(word: u64) -> Self;
}

impl Packable for u64 {
    fn pack(&self) -> u64 {
        *self
    }
    fn unpack(word: u64) -> Self {
        word
    }
}

impl Packable for bool {
    fn pack(&self) -> u64 {
        u64::from(*self)
    }
    fn unpack(word: u64) -> Self {
        word != 0
    }
}

impl<T: Packable> Packable for Option<T> {
    /// Packs `None` as 0 and `Some(v)` as `v.pack() + 1`; inner packings must
    /// therefore stay below `u64::MAX`.
    fn pack(&self) -> u64 {
        match self {
            None => 0,
            Some(v) => v
                .pack()
                .checked_add(1)
                .expect("inner packing must leave headroom for Option"),
        }
    }
    fn unpack(word: u64) -> Self {
        if word == 0 {
            None
        } else {
            Some(T::unpack(word - 1))
        }
    }
}

/// One hardware register cell: an atomic word with plain load/store.
#[derive(Debug, Default)]
pub struct HwCell(AtomicU64);

impl HwCell {
    /// Creates a cell holding `init`.
    pub fn new(init: u64) -> Self {
        HwCell(AtomicU64::new(init))
    }

    /// Atomic load (sequentially consistent, the strongest real-hardware
    /// analogue of the paper's global-time atomicity).
    #[inline]
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::SeqCst);
    }
}

/// A bank of hardware register cells with the same access discipline as
/// [`crate::SharedMemory`], shareable across threads (`&HwRegisterFile` is
/// all a thread needs).
///
/// Cells hold raw words; the typed [`read`](HwRegisterFile::read) /
/// [`write`](HwRegisterFile::write) pair uses [`Packable`], while the
/// word-level [`read_word`](HwRegisterFile::read_word) /
/// [`write_word`](HwRegisterFile::write_word) pair lets callers bring their
/// own encoding (register types that cannot implement `Packable` uniformly,
/// e.g. per-register codecs). Every store path enforces the declared
/// [`RegisterSpec`] bit width — a word that does not fit the register is
/// rejected with [`AccessError::WidthOverflow`], mirroring the bounded
/// registers of the paper's model.
#[derive(Debug)]
pub struct HwRegisterFile<V> {
    specs: Vec<RegisterSpec<V>>,
    cells: Vec<HwCell>,
    /// Packed initial contents, kept so [`reset`](HwRegisterFile::reset)
    /// can restore the file without re-validating or re-allocating.
    init_words: Vec<u64>,
}

impl<V> HwRegisterFile<V> {
    /// Builds the file from register descriptions, packing each initial
    /// value into its cell via `pack`.
    ///
    /// Use this constructor for register types without a uniform
    /// [`Packable`] encoding; otherwise prefer [`new`](HwRegisterFile::new).
    ///
    /// # Errors
    ///
    /// [`AccessError::BadSpec`] under the same conditions as
    /// [`crate::SharedMemory::new`] (id/index mismatch, out-of-range declared
    /// width), and [`AccessError::WidthOverflow`] if a packed initial value
    /// does not fit its register's declared width.
    pub fn with_packer<F>(specs: Vec<RegisterSpec<V>>, pack: F) -> Result<Self, AccessError>
    where
        F: Fn(RegId, &V) -> u64,
    {
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
        let mut cells = Vec::with_capacity(specs.len());
        let mut init_words = Vec::with_capacity(specs.len());
        for s in &specs {
            let word = pack(s.id, &s.init);
            if word > s.max_word() {
                return Err(AccessError::WidthOverflow {
                    reg: s.id,
                    word,
                    width_bits: s.width_bits,
                });
            }
            cells.push(HwCell::new(word));
            init_words.push(word);
        }
        Ok(HwRegisterFile {
            specs,
            cells,
            init_words,
        })
    }

    /// Restores every cell to its packed initial contents.
    ///
    /// This is the frame-reuse primitive for engines that run many protocol
    /// instances through one register file (arena slots in `cil-serve`):
    /// instead of rebuilding specs and cells per instance, a reset brings
    /// the file back to the paper's all-⊥ start without touching the heap.
    /// Requires exclusive access so no thread observes a torn start state.
    /// That same `&mut` shuts out every other thread, so the cells are
    /// written as plain words rather than through SeqCst stores; whatever
    /// later hands the file to another thread (a spawn, a scope) orders
    /// those writes before that thread's first load.
    pub fn reset(&mut self) {
        for (cell, &word) in self.cells.iter_mut().zip(&self.init_words) {
            *cell.0.get_mut() = word;
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the file has no registers.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The register descriptions, in id order.
    pub fn specs(&self) -> &[RegisterSpec<V>] {
        &self.specs
    }

    /// Atomically loads the raw word of `reg` on behalf of `pid`.
    ///
    /// # Errors
    ///
    /// Same access errors as [`crate::SharedMemory::read`].
    pub fn read_word(&self, pid: Pid, reg: RegId) -> Result<u64, AccessError> {
        let spec = self
            .specs
            .get(reg.0)
            .ok_or(AccessError::UnknownRegister(reg))?;
        if !spec.readers.allows(pid) {
            return Err(AccessError::NotReader { pid, reg });
        }
        Ok(self.cells[reg.0].load())
    }

    /// Atomically stores a raw word into `reg` on behalf of `pid`, enforcing
    /// the declared bit width.
    ///
    /// # Errors
    ///
    /// Same access errors as [`crate::SharedMemory::write`], plus
    /// [`AccessError::WidthOverflow`] when `word` exceeds the register's
    /// [`RegisterSpec::max_word`].
    pub fn write_word(&self, pid: Pid, reg: RegId, word: u64) -> Result<(), AccessError> {
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
        if word > spec.max_word() {
            return Err(AccessError::WidthOverflow {
                reg,
                word,
                width_bits: spec.width_bits,
            });
        }
        self.cells[reg.0].store(word);
        Ok(())
    }
}

impl<V: Packable> HwRegisterFile<V> {
    /// Builds the file from register descriptions, packing each initial
    /// value into its cell.
    ///
    /// # Errors
    ///
    /// Same as [`with_packer`](HwRegisterFile::with_packer).
    pub fn new(specs: Vec<RegisterSpec<V>>) -> Result<Self, AccessError> {
        Self::with_packer(specs, |_, v| v.pack())
    }

    /// Atomically reads `reg` on behalf of `pid`.
    ///
    /// # Errors
    ///
    /// Same access errors as [`crate::SharedMemory::read`].
    pub fn read(&self, pid: Pid, reg: RegId) -> Result<V, AccessError> {
        self.read_word(pid, reg).map(V::unpack)
    }

    /// Atomically writes `value` into `reg` on behalf of `pid`.
    ///
    /// # Errors
    ///
    /// Same access errors as [`crate::SharedMemory::write`], plus
    /// [`AccessError::WidthOverflow`] when the packed value exceeds the
    /// declared width.
    pub fn write(&self, pid: Pid, reg: RegId, value: &V) -> Result<(), AccessError> {
        self.write_word(pid, reg, value.pack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::ReaderSet;
    use crate::linearize::{is_linearizable, HistOp};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    #[test]
    fn packable_round_trips() {
        assert_eq!(u64::unpack(17u64.pack()), 17);
        assert!(bool::unpack(true.pack()));
        assert_eq!(Option::<u64>::unpack(None::<u64>.pack()), None);
        assert_eq!(Option::<u64>::unpack(Some(3u64).pack()), Some(3));
        assert_eq!(Option::<bool>::unpack(Some(false).pack()), Some(false));
    }

    #[test]
    fn cell_load_store() {
        let c = HwCell::new(3);
        assert_eq!(c.load(), 3);
        c.store(9);
        assert_eq!(c.load(), 9);
    }

    fn file_1w1r() -> HwRegisterFile<Option<u64>> {
        HwRegisterFile::new(vec![
            RegisterSpec::new(RegId(0), "r0", Pid(0), ReaderSet::only([Pid(1)]), None),
            RegisterSpec::new(RegId(1), "r1", Pid(1), ReaderSet::only([Pid(0)]), None),
        ])
        .unwrap()
    }

    #[test]
    fn file_enforces_access_control() {
        let f = file_1w1r();
        assert!(f.write(Pid(0), RegId(0), &Some(1)).is_ok());
        assert!(f.write(Pid(1), RegId(0), &Some(1)).is_err());
        assert_eq!(f.read(Pid(1), RegId(0)).unwrap(), Some(1));
        assert!(f.read(Pid(0), RegId(0)).is_err());
    }

    #[test]
    fn store_rejects_out_of_width_words() {
        let f = HwRegisterFile::<u64>::new(vec![RegisterSpec::new(
            RegId(0),
            "r",
            Pid(0),
            ReaderSet::All,
            0u64,
        )
        .with_width(3)])
        .unwrap();
        // Boundary: the largest in-width word is accepted...
        assert!(f.write(Pid(0), RegId(0), &7).is_ok());
        assert_eq!(f.read(Pid(1), RegId(0)).unwrap(), 7);
        // ...and the first out-of-width word is rejected without clobbering.
        assert_eq!(
            f.write(Pid(0), RegId(0), &8),
            Err(AccessError::WidthOverflow {
                reg: RegId(0),
                word: 8,
                width_bits: 3,
            })
        );
        assert_eq!(f.read(Pid(1), RegId(0)).unwrap(), 7);
    }

    #[test]
    fn full_width_register_accepts_max_word() {
        let f = HwRegisterFile::<u64>::new(vec![RegisterSpec::new(
            RegId(0),
            "r",
            Pid(0),
            ReaderSet::All,
            0u64,
        )])
        .unwrap();
        assert!(f.write(Pid(0), RegId(0), &u64::MAX).is_ok());
        assert_eq!(f.read(Pid(1), RegId(0)).unwrap(), u64::MAX);
    }

    #[test]
    fn constructor_rejects_out_of_width_init() {
        let mut spec = RegisterSpec::new(RegId(0), "r", Pid(0), ReaderSet::All, 4u64);
        spec.width_bits = 2;
        assert_eq!(
            HwRegisterFile::new(vec![spec]).unwrap_err(),
            AccessError::WidthOverflow {
                reg: RegId(0),
                word: 4,
                width_bits: 2,
            }
        );
    }

    #[test]
    fn constructor_rejects_bad_width_spec() {
        let mut spec = RegisterSpec::new(RegId(0), "r", Pid(0), ReaderSet::All, 0u64);
        spec.width_bits = 0;
        assert!(matches!(
            HwRegisterFile::new(vec![spec]),
            Err(AccessError::BadSpec(_))
        ));
    }

    #[test]
    fn reset_restores_initial_contents() {
        let mut f = file_1w1r();
        f.write(Pid(0), RegId(0), &Some(7)).unwrap();
        f.write(Pid(1), RegId(1), &Some(9)).unwrap();
        f.reset();
        assert_eq!(f.read(Pid(1), RegId(0)).unwrap(), None);
        assert_eq!(f.read(Pid(0), RegId(1)).unwrap(), None);
        // The file is fully usable again after the reset.
        f.write(Pid(0), RegId(0), &Some(2)).unwrap();
        assert_eq!(f.read(Pid(1), RegId(0)).unwrap(), Some(2));
    }

    #[test]
    fn with_packer_hosts_non_packable_encodings() {
        // A custom per-register codec: values stored as two's-complement-ish
        // offset words without a Packable impl for the value type.
        let f = HwRegisterFile::<i32>::with_packer(
            vec![RegisterSpec::new(RegId(0), "r", Pid(0), ReaderSet::All, -1i32).with_width(8)],
            |_, v| (v + 128) as u64,
        )
        .unwrap();
        assert_eq!(f.read_word(Pid(1), RegId(0)).unwrap(), 127);
        f.write_word(Pid(0), RegId(0), 255).unwrap();
        assert_eq!(f.read_word(Pid(1), RegId(0)).unwrap(), 255);
        assert!(f.write_word(Pid(0), RegId(0), 256).is_err());
    }

    #[test]
    fn concurrent_history_on_real_threads_is_linearizable() {
        // One writer thread, one reader thread, coarse global timestamps.
        // SeqCst loads/stores must produce a linearizable history.
        let file = HwRegisterFile::<u64>::new(vec![RegisterSpec::new(
            RegId(0),
            "r",
            Pid(0),
            ReaderSet::All,
            0u64,
        )])
        .unwrap();
        let clock = AtomicU64::new(1);
        let history = Mutex::new(Vec::<HistOp>::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                for v in 1..=20u64 {
                    let t0 = clock.fetch_add(1, Ordering::SeqCst);
                    file.write(Pid(0), RegId(0), &v).unwrap();
                    let t1 = clock.fetch_add(1, Ordering::SeqCst);
                    history
                        .lock()
                        .unwrap()
                        .push(HistOp::write(t0, t1, v as usize));
                }
            });
            s.spawn(|| {
                for _ in 0..20 {
                    let t0 = clock.fetch_add(1, Ordering::SeqCst);
                    let v = file.read(Pid(1), RegId(0)).unwrap();
                    let t1 = clock.fetch_add(1, Ordering::SeqCst);
                    history
                        .lock()
                        .unwrap()
                        .push(HistOp::read(t0, t1, v as usize));
                }
            });
        });
        let h = history.into_inner().unwrap();
        assert!(is_linearizable(0, &h), "hardware history not linearizable");
    }
}
