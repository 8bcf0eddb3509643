//! Dual-slot durable snapshot store with torn-write fallback.
//!
//! A snapshot that is overwritten in place can be destroyed by the very
//! crash it exists to survive: a process killed mid-write leaves neither
//! the old nor the new state readable. The store therefore keeps **two
//! slots** and alternates between them:
//!
//! * every save is sealed into a checksummed frame
//!   ([`Encoder::put_frame`]) carrying a monotonically increasing
//!   sequence number, and written to the slot *not* holding the latest
//!   valid snapshot;
//! * every load picks the highest-sequence slot that passes checksum
//!   validation.
//!
//! A torn or corrupted write therefore costs exactly one snapshot
//! generation: the previous slot still validates and wins the load. Only
//! when both slots are unreadable does [`SnapshotStore::load`] report
//! nothing, and the caller falls back to a cold start.
//!
//! A slot holds `frame(seq:u64 | len:u64 | payload)`; the payload is
//! whatever the caller saved, for the OODA runtime itself a sealed frame.
//!
//! # What is validated, and when
//!
//! Validating a slot means reading it from the medium and checking its
//! frame header, its declared lengths and the checksum over all of it. A
//! fleet-scale snapshot is tens of megabytes, so the store validates no
//! more slots than the protocol needs, and never relies on a slot it has
//! not validated:
//!
//! * **`load`** consults nothing the store remembers — a restart may keep
//!   the store object or build a new one, and must see the same. It reads
//!   both slots, validates the one whose header *claims* the higher
//!   sequence (slot 0 on a tie), and validates the other only if that
//!   fails. A claim is unchecked bytes, but it only orders the work: the
//!   slot returned has passed its checksum, and a valid slot's sequence is
//!   its claim, so the result is that of validating both.
//! * **`save`** must not overwrite the newest valid generation, so before
//!   writing slot *t* it validates the *other* slot, the one whose
//!   survival the protocol depends on. The store remembers the sequence
//!   and slot it wrote last; if that slot still validates with that
//!   sequence it is the newest, and the target is the other one, which is
//!   never read. If nothing is remembered, or the remembered slot no
//!   longer validates, both slots are validated and the target chosen
//!   from what they hold.
//!
//! # Fault model
//!
//! A medium may acknowledge a write it tore: `write_slot` returns `Ok`,
//! the process lives on, and the slot is garbage. The store still
//! remembers having written it, which is why the remembered slot is
//! re-validated from the medium before every save rather than trusted:
//! the next save finds it invalid, falls back to validating both, and
//! aims at the torn slot again, leaving the last valid generation alone.
//! A failed (`Err`) write forgets the remembered slot outright.
//!
//! The store assumes it is the medium's only writer. The one sanctioned
//! way around it is [`SnapshotStore::medium_mut`], through which a caller
//! can rewrite either slot, including planting a generation newer than
//! the store's own in the slot the next save would target; handing it out
//! therefore forgets the remembered slot.
//!
//! The byte sink behind the slots is abstracted as [`SnapshotMedium`] so
//! tests can interpose deterministic torn-write faults, and services can
//! choose between the in-memory medium (crash-simulation harnesses) and
//! the directory medium (real files).

use std::ops::Range;
use std::path::PathBuf;

use crate::codec::{fnv1a64, open_frame, CodecError, Decoder, Encoder, FRAME_OVERHEAD};

/// Frame kind tag of snapshot-store frames.
pub const SNAPSHOT_FRAME_KIND: u16 = 1;

/// Newest snapshot-store frame version this build reads and writes.
pub const SNAPSHOT_FRAME_VERSION: u32 = 1;

/// Byte sink with two addressable slots. Implementations must make
/// `read_slot` return whatever bytes the last `write_slot` left behind
/// (torn writes included — the store's framing detects them); they need
/// not make writes atomic.
pub trait SnapshotMedium {
    /// Reads the raw bytes of `slot` (0 or 1), or `None` if the slot has
    /// never been written / does not exist.
    fn read_slot(&self, slot: usize) -> Option<Vec<u8>>;
    /// Replaces the raw bytes of `slot` (0 or 1).
    fn write_slot(&mut self, slot: usize, bytes: &[u8]) -> std::io::Result<()>;
}

/// Volatile in-memory medium — the crash-simulation harness's "disk"
/// (it outlives the simulated process, not the real one).
#[derive(Debug, Default, Clone)]
pub struct MemSnapshotMedium {
    slots: [Option<Vec<u8>>; 2],
}

impl MemSnapshotMedium {
    /// A fresh medium with both slots empty.
    pub fn new() -> Self {
        MemSnapshotMedium::default()
    }
}

impl SnapshotMedium for MemSnapshotMedium {
    fn read_slot(&self, slot: usize) -> Option<Vec<u8>> {
        self.slots.get(slot)?.clone()
    }
    fn write_slot(&mut self, slot: usize, bytes: &[u8]) -> std::io::Result<()> {
        // A snapshot is tens of megabytes and within a few percent of the
        // one it replaces, so the slot's buffer is rewritten when it is
        // big enough, and replaced with that much headroom (not doubled)
        // when it is not.
        match &mut self.slots[slot] {
            Some(held) if held.capacity() >= bytes.len() => {
                held.clear();
                held.extend_from_slice(bytes);
            }
            held => {
                let mut fresh = Vec::with_capacity(bytes.len() + bytes.len() / 16);
                fresh.extend_from_slice(bytes);
                *held = Some(fresh);
            }
        }
        Ok(())
    }
}

/// File-backed medium: slots are `snap.a` / `snap.b` inside a directory.
/// Writes go straight to the slot file (no rename dance) — the dual-slot
/// protocol above is what provides crash safety, so a torn file is
/// acceptable by design.
#[derive(Debug, Clone)]
pub struct DirSnapshotMedium {
    dir: PathBuf,
}

impl DirSnapshotMedium {
    /// A medium storing its slots in `dir` (created if missing).
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DirSnapshotMedium { dir })
    }

    fn slot_path(&self, slot: usize) -> PathBuf {
        self.dir.join(if slot == 0 { "snap.a" } else { "snap.b" })
    }
}

impl SnapshotMedium for DirSnapshotMedium {
    fn read_slot(&self, slot: usize) -> Option<Vec<u8>> {
        std::fs::read(self.slot_path(slot)).ok()
    }
    fn write_slot(&mut self, slot: usize, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::write(self.slot_path(slot), bytes)
    }
}

/// Byte offset of the sequence number in a slot: it is the first field of
/// the store frame's payload, right after the frame header.
const SEQUENCE_AT: usize = FRAME_OVERHEAD - 8;

/// Opens a slot's bytes as `(sequence, payload range)`, or `None` when
/// they are torn or corrupt. Validates everything: frame header, declared
/// lengths and the checksum over the whole slot.
fn open_slot(bytes: &[u8]) -> Option<(u64, Range<usize>)> {
    let frame = open_frame(bytes, SNAPSHOT_FRAME_KIND, SNAPSHOT_FRAME_VERSION).ok()?;
    let mut dec = Decoder::new(frame.payload);
    let seq = dec.take_u64("snapshot sequence").ok()?;
    let payload = dec.take_bytes("snapshot payload").ok()?;
    dec.finish().ok()?;
    // The payload is the frame's tail, so it ends where the checksum
    // starts.
    let end = bytes.len() - 8;
    Some((seq, end - payload.len()..end))
}

/// The sequence number a slot's header *claims*, unvalidated — only good
/// for deciding which slot to validate first.
fn claimed_sequence(bytes: &[u8]) -> Option<u64> {
    let word = bytes.get(SEQUENCE_AT..SEQUENCE_AT + 8)?;
    Some(u64::from_le_bytes(word.try_into().unwrap()))
}

/// Alternating dual-slot snapshot store over a [`SnapshotMedium`]. See
/// the module docs for what `load` and `save` validate.
#[derive(Debug)]
pub struct SnapshotStore<M> {
    medium: M,
    /// The last frame built, kept for its allocation.
    frame: Vec<u8>,
    /// `(sequence, slot)` of the generation this store wrote last, while
    /// nothing else can have touched the medium since.
    newest: Option<(u64, usize)>,
}

impl<M: SnapshotMedium> SnapshotStore<M> {
    /// A store over `medium`; existing slot contents are picked up as-is.
    pub fn new(medium: M) -> Self {
        SnapshotStore {
            medium,
            frame: Vec::new(),
            newest: None,
        }
    }

    /// Shared access to the underlying medium.
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// Mutable access to the underlying medium (used by fault-injecting
    /// test wrappers to tear a just-written slot). The caller may rewrite
    /// either slot through it, so the store forgets which slot it wrote
    /// last and the next save scans both.
    pub fn medium_mut(&mut self) -> &mut M {
        self.newest = None;
        &mut self.medium
    }

    /// Validated sequence number of one slot, or `None` when the slot is
    /// missing, torn or corrupt.
    fn valid_sequence(&self, slot: usize) -> Option<u64> {
        Some(open_slot(&self.medium.read_slot(slot)?)?.0)
    }

    /// Loads the newest valid snapshot as `(sequence, payload)`, or
    /// `None` when neither slot validates (cold start). Nothing
    /// remembered is consulted: both slots are read, the one claiming the
    /// higher sequence is validated first (slot 0 on a tie), and the
    /// other only if that fails.
    pub fn load(&self) -> Option<(u64, Vec<u8>)> {
        let mut slots = [0, 1].map(|slot| self.medium.read_slot(slot));
        let claim = |slot: &Option<Vec<u8>>| slot.as_deref().and_then(claimed_sequence);
        if claim(&slots[1]) > claim(&slots[0]) {
            slots.swap(0, 1);
        }
        slots.into_iter().flatten().find_map(|mut bytes| {
            let (seq, payload) = open_slot(&bytes)?;
            // Cut the payload out of the slot's own buffer.
            bytes.truncate(payload.end);
            bytes.drain(..payload.start);
            Some((seq, bytes))
        })
    }

    /// The sequence number and target slot of the next save: one past the
    /// newest valid generation, into the slot *not* holding it. The slot
    /// holding it is validated from the medium here, checksum included —
    /// first the one this store wrote last, then, if that is unknown or
    /// no longer validates, both.
    fn next_generation(&self) -> (u64, usize) {
        if let Some((seq, slot)) = self.newest {
            if self.valid_sequence(slot) == Some(seq) {
                return (seq + 1, 1 - slot);
            }
        }
        match (self.valid_sequence(0), self.valid_sequence(1)) {
            (Some(a), Some(b)) => (a.max(b) + 1, if a >= b { 1 } else { 0 }),
            (Some(a), None) => (a + 1, 1),
            (None, Some(b)) => (b + 1, 0),
            (None, None) => (1, 0),
        }
    }

    /// Saves `payload` as the next snapshot generation and returns its
    /// sequence number. The write targets the slot *not* holding the
    /// newest valid snapshot, so a crash mid-write cannot lose the prior
    /// generation.
    pub fn save(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        let saved = self.save_with(|enc| {
            enc.put_raw(payload);
            true
        })?;
        Ok(saved.expect("the writer above never declines"))
    }

    /// [`save`](Self::save) for a payload that is encoded on the spot:
    /// `write` appends the payload to the store's retained frame buffer,
    /// so a large snapshot is never built separately and copied in.
    /// `write` may decline by returning `false`; then nothing is written,
    /// no sequence number is used up and the result is `Ok(None)`.
    pub fn save_with(
        &mut self,
        write: impl FnOnce(&mut Encoder) -> bool,
    ) -> std::io::Result<Option<u64>> {
        let (seq, target) = self.next_generation();
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        let mut enc = Encoder::over(frame);
        let written = enc.put_frame(SNAPSHOT_FRAME_KIND, SNAPSHOT_FRAME_VERSION, |enc| {
            enc.put_u64(seq);
            enc.put_bytes_with(write)
        });
        self.frame = enc.into_bytes();
        if !written {
            return Ok(None);
        }
        // A failed write leaves the target slot in an unknown state.
        self.newest = None;
        self.medium.write_slot(target, &self.frame)?;
        self.newest = Some((seq, target));
        Ok(Some(seq))
    }
}

/// Append-only record journal with per-record framing and a tolerant
/// reader.
///
/// Each record is stored as `len:u32 | fnv64:u64 | payload`, checksummed
/// individually, so the journal degrades like a write-ahead log: a crash
/// mid-append tears at most the final record, and
/// [`Journal::from_bytes`] recovers every record up to (not including)
/// the first torn or corrupt frame — it never panics and never yields a
/// record whose checksum does not match.
#[derive(Debug, Default, Clone)]
pub struct Journal {
    bytes: Vec<u8>,
    /// Byte offset where each record's frame begins (index = record id).
    offsets: Vec<usize>,
}

impl Journal {
    /// A fresh, empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Recovers a journal from raw bytes, keeping the longest valid
    /// record prefix and dropping everything from the first torn record
    /// on.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut offsets = Vec::new();
        let mut pos = 0usize;
        while bytes.len() - pos >= 12 {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let stored = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
            let Some(end) = pos.checked_add(12).and_then(|s| s.checked_add(len)) else {
                break;
            };
            if end > bytes.len() || fnv1a64(&bytes[pos + 12..end]) != stored {
                break;
            }
            offsets.push(pos);
            pos = end;
        }
        // Records are kept byte for byte, so the valid prefix is the
        // journal.
        Journal {
            bytes: bytes[..pos].to_vec(),
            offsets,
        }
    }

    /// Appends one record, returning its index.
    pub fn append(&mut self, payload: &[u8]) -> u64 {
        let index = self.offsets.len() as u64;
        self.offsets.push(self.bytes.len());
        self.bytes
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.bytes
            .extend_from_slice(&fnv1a64(payload).to_le_bytes());
        self.bytes.extend_from_slice(payload);
        index
    }

    /// Number of (valid) records.
    pub fn records(&self) -> u64 {
        self.offsets.len() as u64
    }

    /// The raw journal bytes (what a service would persist).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Record payload at `index`, if present.
    pub fn record(&self, index: u64) -> Option<&[u8]> {
        let start = *self.offsets.get(index as usize)?;
        let len = u32::from_le_bytes(self.bytes[start..start + 4].try_into().unwrap()) as usize;
        Some(&self.bytes[start + 12..start + 12 + len])
    }

    /// Iterates record payloads starting at record `from` — the replay
    /// entry point (`from` is typically a snapshot's journal watermark).
    pub fn iter_from(&self, from: u64) -> impl Iterator<Item = &[u8]> + '_ {
        (from..self.records()).filter_map(move |i| self.record(i))
    }
}

/// Errors from interpreting journal payloads (re-exported convenience).
pub type JournalDecodeError = CodecError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_alternates_slots_and_survives_a_torn_write() {
        let mut store = SnapshotStore::new(MemSnapshotMedium::new());
        assert!(store.load().is_none());
        assert_eq!(store.save(b"one").unwrap(), 1);
        assert_eq!(store.load().unwrap(), (1, b"one".to_vec()));
        assert_eq!(store.save(b"two").unwrap(), 2);
        assert_eq!(store.load().unwrap(), (2, b"two".to_vec()));

        // Tear the newest slot mid-write: load falls back to the
        // surviving prior generation.
        let newest = (0..2)
            .find(|&slot| claimed_sequence(&store.medium().read_slot(slot).unwrap()) == Some(2))
            .unwrap();
        let torn: Vec<u8> = store.medium().read_slot(newest).unwrap()[..10].to_vec();
        store.medium_mut().write_slot(newest, &torn).unwrap();
        assert_eq!(store.load().unwrap(), (1, b"one".to_vec()));

        // The next save reuses the torn slot and moves on.
        assert_eq!(store.save(b"three").unwrap(), 2);
        assert_eq!(store.load().unwrap(), (2, b"three".to_vec()));
    }

    #[test]
    fn dir_medium_round_trips() {
        let dir = std::env::temp_dir().join(format!("lakesim-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SnapshotStore::new(DirSnapshotMedium::new(&dir).unwrap());
        store.save(b"alpha").unwrap();
        store.save(b"beta").unwrap();
        let reopened = SnapshotStore::new(DirSnapshotMedium::new(&dir).unwrap());
        assert_eq!(reopened.load().unwrap(), (2, b"beta".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_replays_and_tolerates_torn_tail() {
        let mut journal = Journal::new();
        journal.append(b"a");
        journal.append(b"bb");
        journal.append(b"ccc");
        assert_eq!(journal.records(), 3);
        assert_eq!(
            journal.iter_from(1).collect::<Vec<_>>(),
            vec![b"bb".as_slice(), b"ccc".as_slice()]
        );

        // Torn tail: drop the last 2 bytes — final record is discarded,
        // the prefix survives.
        let torn = &journal.bytes()[..journal.bytes().len() - 2];
        let recovered = Journal::from_bytes(torn);
        assert_eq!(recovered.records(), 2);
        assert_eq!(recovered.record(1), Some(b"bb".as_slice()));

        // Bit flip inside a record: that record and everything after it
        // is discarded.
        let mut flipped = journal.bytes().to_vec();
        flipped[12] ^= 0x40; // record 0's payload byte
        let recovered = Journal::from_bytes(&flipped);
        assert_eq!(recovered.records(), 0);

        // Appending to a recovered journal continues the chain.
        let mut recovered = Journal::from_bytes(journal.bytes());
        assert_eq!(recovered.append(b"dddd"), 3);
        assert_eq!(recovered.record(3), Some(b"dddd".as_slice()));
    }

    #[test]
    fn journal_from_garbage_never_panics() {
        for len in 0..64usize {
            let garbage: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let j = Journal::from_bytes(&garbage);
            assert_eq!(j.records(), 0);
        }
    }
}
