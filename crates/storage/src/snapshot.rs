//! Dual-slot durable snapshot store with torn-write fallback, and the
//! append-only journal that covers the gap between snapshots.
//!
//! A snapshot that is overwritten in place can be destroyed by the very
//! crash it exists to survive: a process killed mid-write leaves neither
//! the old nor the new state readable. The store therefore keeps **two
//! slots** and never writes the one the newest restorable state depends
//! on. A slot holds one generation of one of two kinds:
//!
//! * a **base**, `frame(seq:u64 | len:u64 | payload)` of kind
//!   [`SNAPSHOT_FRAME_KIND`]: a whole snapshot on its own;
//! * a **delta**, `frame(seq:u64 | base:u64 | base_check:u64 | len:u64 |
//!   payload)` of kind [`SNAPSHOT_DELTA_FRAME_KIND`]: a patch over the
//!   base in the *other* slot, named by its sequence number and by the
//!   checksum that seals that slot.
//!
//! Every generation is sealed into a checksummed frame
//! ([`Encoder::put_frame`]) carrying a monotonically increasing sequence
//! number. A base alone is restorable; a delta is restorable only
//! together with the base it names, intact in the other slot. A load
//! returns the newest restorable generation: a base's payload, or a
//! base's payload followed by its delta's. Whatever it is, the payload is
//! what the caller saved; for the OODA runtime, one sealed frame or two.
//!
//! The slots alternate like this. A base goes to the slot *not* holding
//! the base the newest generation depends on, so it replaces the newest
//! delta (or the older base), never the base that delta needs. A delta
//! goes to the slot not holding its base and replaces the delta before
//! it. A torn write therefore costs at most the generations since the
//! base: the base still validates and wins the load. Only when no slot
//! holds a restorable generation does [`SnapshotStore::load`] report
//! nothing, and the caller falls back to a cold start.
//!
//! # What is validated, and when
//!
//! Validating a slot means reading it from the medium and checking its
//! frame header, its declared lengths and the checksum over all of it. A
//! fleet-scale base is tens of megabytes, so the store validates no more
//! slots than the protocol needs, and never relies on a slot it has not
//! validated:
//!
//! * **`load`** consults nothing the store remembers — a restart may keep
//!   the store object or build a new one, and must see the same. It reads
//!   both slots and validates the one whose header *claims* the higher
//!   sequence (slot 0 on a tie). If that is a delta, it validates the
//!   other slot as the base the delta names. If the first slot is not
//!   restorable it tries the other one alone. A claim is unchecked bytes,
//!   but it only orders the work: a valid slot's sequence is its claim,
//!   so the result is that of validating both. A base alone is cut out
//!   of its slot's buffer in place; a base and a delta are copied once
//!   into one buffer of their own, the base's payload first.
//! * **`save`** (a base) and **`save_delta_with`** (a delta) must not
//!   overwrite the base the newest generation depends on, the slot whose
//!   survival the protocol depends on. A base is therefore validated
//!   once, before the first write after it — the first delta over it,
//!   or the next base — and trusted after that while the store
//!   remembers it: every later delta over it is written without reading
//!   a slot. If nothing is remembered, or the remembered base no longer
//!   validates, both slots are validated, one at a time, and the target
//!   chosen from the newest restorable generation they hold; a delta
//!   save whose base is not that generation's base writes nothing.
//!
//! # Fault model
//!
//! A medium may acknowledge a write it tore: `write_slot` returns `Ok`,
//! the process lives on, and the slot is garbage. The store still
//! remembers having written it. A torn delta is harmless: the next
//! write aims at the same slot, and the base it depends on validated
//! before the first delta. A torn base is why a base is validated
//! before the first write after it rather than trusted on being
//! written: that write finds it invalid, falls back to validating both
//! slots, and aims at the torn slot again, leaving the last restorable
//! generation alone. A failed (`Err`) write forgets what the store
//! remembered outright.
//!
//! The store assumes it is the medium's only writer. The one sanctioned
//! way around it is [`SnapshotStore::medium_mut`], through which a caller
//! can rewrite either slot, including planting a generation newer than
//! the store's own in the slot the next save would target; handing it out
//! therefore forgets everything remembered.
//!
//! The byte sink behind the slots is abstracted as [`SnapshotMedium`] so
//! tests can interpose deterministic torn-write faults, and services can
//! choose between the in-memory medium (crash-simulation harnesses) and
//! the directory medium (real files).
//!
//! # The journal's checksum
//!
//! [`Journal`] records are checked with [`frame_checksum64`], which reads
//! a word at a time, so a reload costs what copying the bytes does. Its
//! records were checked with the byte-serial
//! [`fnv1a64`](crate::codec::fnv1a64) before: the record header is the
//! same 12 bytes, but the checksum values differ, so an older journal
//! reloads as empty. That is safe because the switch
//! shipped with the runtime's snapshot version 4: a journal is only
//! replayed past the watermark of a snapshot the same build wrote, and a
//! build that reads this journal rejects every older snapshot before any
//! replay, cold-starting instead.

use std::ops::Range;
use std::path::PathBuf;

use crate::codec::{frame_checksum64, open_frame, CodecError, Decoder, Encoder, FRAME_OVERHEAD};

/// Frame kind tag of base slots.
pub const SNAPSHOT_FRAME_KIND: u16 = 1;

/// Frame kind tag of delta slots.
pub const SNAPSHOT_DELTA_FRAME_KIND: u16 = 2;

/// Newest snapshot-store frame version this build reads and writes, for
/// both kinds.
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
/// the store frame's payload, right after the frame header, in both
/// kinds.
const SEQUENCE_AT: usize = FRAME_OVERHEAD - 8;

/// A slot that validated: everything checked, frame header, declared
/// lengths and the checksum over the whole slot.
struct Opened {
    seq: u64,
    /// For a delta, the `(sequence, check)` of the base it patches.
    base: Option<(u64, u64)>,
    payload: Range<usize>,
    /// The checksum sealing the slot: the name a delta gives its base.
    check: u64,
}

/// Opens a slot's bytes, or `None` when they are torn or corrupt.
fn open_slot(bytes: &[u8]) -> Option<Opened> {
    let kind = u16::from_le_bytes(bytes.get(8..10)?.try_into().unwrap());
    let frame = open_frame(bytes, kind, SNAPSHOT_FRAME_VERSION).ok()?;
    let mut dec = Decoder::new(frame.payload);
    let seq = dec.take_u64("snapshot sequence").ok()?;
    let base = match kind {
        SNAPSHOT_FRAME_KIND => None,
        SNAPSHOT_DELTA_FRAME_KIND => Some((
            dec.take_u64("base sequence").ok()?,
            dec.take_u64("base check").ok()?,
        )),
        _ => return None,
    };
    let payload = dec.take_bytes("snapshot payload").ok()?;
    dec.finish().ok()?;
    // The payload is the frame's tail, so it ends where the checksum
    // starts.
    let end = bytes.len() - 8;
    Some(Opened {
        seq,
        base,
        payload: end - payload.len()..end,
        check: u64::from_le_bytes(bytes[end..].try_into().unwrap()),
    })
}

/// The sequence number a slot's header *claims*, unvalidated — only good
/// for deciding which slot to validate first.
fn claimed_sequence(bytes: &[u8]) -> Option<u64> {
    let word = bytes.get(SEQUENCE_AT..SEQUENCE_AT + 8)?;
    Some(u64::from_le_bytes(word.try_into().unwrap()))
}

/// A base generation on the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BaseSlot {
    seq: u64,
    slot: usize,
    check: u64,
}

/// The newest restorable generation of two slots: a base, and the delta
/// over it if there is one, each with its slot.
struct Restorable {
    base: (usize, Opened),
    delta: Option<(usize, Opened)>,
}

impl Restorable {
    /// Sequence of the generation: the delta's, if there is one.
    fn seq(&self) -> u64 {
        self.delta.as_ref().unwrap_or(&self.base).1.seq
    }

    fn base_slot(&self) -> BaseSlot {
        let (slot, base) = &self.base;
        BaseSlot {
            seq: base.seq,
            slot: *slot,
            check: base.check,
        }
    }
}

/// The newest restorable generation of two slots, opening slot `i` with
/// `open(i)`: slot `first` first, the other only when `first` is a
/// delta (to find its base) or restores nothing.
fn newest_restorable(
    first: usize,
    mut open: impl FnMut(usize) -> Option<Opened>,
) -> Option<Restorable> {
    let under = match open(first) {
        Some(newest) => match newest.base {
            None => {
                return Some(Restorable {
                    base: (first, newest),
                    delta: None,
                })
            }
            Some(named) => {
                let under = open(1 - first);
                if under
                    .as_ref()
                    .is_some_and(|b| b.base.is_none() && (b.seq, b.check) == named)
                {
                    return Some(Restorable {
                        base: (1 - first, under.unwrap()),
                        delta: Some((first, newest)),
                    });
                }
                under
            }
        },
        None => open(1 - first),
    };
    // The newest slot restores nothing: the other one may, alone.
    let alone = under.filter(|o| o.base.is_none())?;
    Some(Restorable {
        base: (1 - first, alone),
        delta: None,
    })
}

/// The slot to open first: the one whose header claims, or whose
/// validated frame holds, the higher sequence (slot 0 on a tie).
fn higher(claims: [Option<u64>; 2]) -> usize {
    (claims[1] > claims[0]) as usize
}

/// What the store wrote last, while nothing else can have touched the
/// medium since.
#[derive(Debug, Clone, Copy)]
struct Written {
    /// The base the newest generation is, or patches.
    base: BaseSlot,
    /// Whether `base` validated from the medium since it was written.
    trusted: bool,
    /// Sequence of the newest generation written: `base`'s own, or a
    /// delta's over it.
    newest: u64,
}

/// Alternating dual-slot snapshot store over a [`SnapshotMedium`]. See
/// the module docs for the slot protocol and for what `load` and the
/// saves validate.
#[derive(Debug)]
pub struct SnapshotStore<M> {
    medium: M,
    /// The last frame built, kept for its allocation.
    frame: Vec<u8>,
    written: Option<Written>,
}

impl<M: SnapshotMedium> SnapshotStore<M> {
    /// A store over `medium`; existing slot contents are picked up as-is.
    pub fn new(medium: M) -> Self {
        SnapshotStore {
            medium,
            frame: Vec::new(),
            written: None,
        }
    }

    /// Shared access to the underlying medium.
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// Mutable access to the underlying medium (used by fault-injecting
    /// test wrappers to tear a just-written slot). The caller may rewrite
    /// either slot through it, so the store forgets what it wrote and the
    /// next save reads both slots.
    pub fn medium_mut(&mut self) -> &mut M {
        self.written = None;
        &mut self.medium
    }

    /// Loads the newest restorable generation as `(sequence, payload)`:
    /// a base's payload, or a base's payload followed by the payload of
    /// the delta over it. `None` when no slot holds one (cold start).
    /// Nothing remembered is consulted: both slots are read, the one
    /// claiming the higher sequence is validated first (slot 0 on a tie),
    /// then the base it names, if it is a delta, and the other slot alone
    /// only if that fails.
    pub fn load(&self) -> Option<(u64, Vec<u8>)> {
        let mut slots = [0, 1].map(|slot| self.medium.read_slot(slot));
        let first = higher([0, 1].map(|i| slots[i].as_deref().and_then(claimed_sequence)));
        let found = newest_restorable(first, |i| slots[i].as_deref().and_then(open_slot))?;
        let mut read = |(slot, opened): &(usize, Opened)| {
            (
                slots[*slot].take().expect("an opened slot was read"),
                opened.payload.clone(),
            )
        };
        let (mut base, payload) = read(&found.base);
        Some((
            found.seq(),
            match found.delta.as_ref().map(read) {
                // A base alone is cut out of the slot's own buffer.
                None => {
                    base.truncate(payload.end);
                    base.drain(..payload.start);
                    base
                }
                Some((delta, delta_payload)) => {
                    let delta = &delta[delta_payload];
                    let mut out = Vec::with_capacity(payload.len() + delta.len());
                    out.extend_from_slice(&base[payload]);
                    out.extend_from_slice(delta);
                    out
                }
            },
        ))
    }

    /// `(delta sequence, base sequence)` of a delta that validates on the
    /// medium while no slot holds the base it names intact: why a
    /// [`load`](Self::load) that found nothing found nothing, when that is
    /// the reason.
    pub fn missing_base(&self) -> Option<(u64, u64)> {
        let slots = [0, 1].map(|slot| self.medium.read_slot(slot).and_then(|b| open_slot(&b)));
        (0..2).find_map(|i| {
            let (base, check) = slots[i].as_ref()?.base?;
            let held = slots[1 - i]
                .as_ref()
                .is_some_and(|b| b.base.is_none() && (b.seq, b.check) == (base, check));
            (!held).then(|| (slots[i].as_ref().unwrap().seq, base))
        })
    }

    /// The base the newest generation depends on, and that generation's
    /// sequence. The remembered base is validated from the medium the
    /// first time it is asked for — it is then still the last frame
    /// built, so its slot must read back byte for byte — and trusted
    /// after that; if nothing is remembered, or the remembered base does
    /// not read back, both slots are validated, one at a time, so a
    /// fleet-scale store never holds two copies of its slots here.
    fn current_base(&mut self) -> Option<(BaseSlot, u64)> {
        if let Some(written) = self.written.as_mut() {
            let base = written.base;
            let intact = written.trusted
                || self.medium.read_slot(base.slot).as_deref() == Some(&self.frame[..]);
            if intact {
                written.trusted = true;
                return Some((base, written.newest));
            }
        }
        let mut opened = [0, 1].map(|slot| self.medium.read_slot(slot).and_then(|b| open_slot(&b)));
        let first = higher([0, 1].map(|i| opened[i].as_ref().map(|o| o.seq)));
        let found = newest_restorable(first, |i| opened[i].take())?;
        let (base, newest) = (found.base_slot(), found.seq());
        self.written = Some(Written {
            base,
            trusted: true,
            newest,
        });
        Some((base, newest))
    }

    /// Saves `payload` as the next base generation and returns its
    /// sequence number. The write targets the slot *not* holding the base
    /// the newest generation depends on, so a crash mid-write cannot lose
    /// it.
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
        let (seq, target) = match self.current_base() {
            Some((base, newest)) => (newest + 1, 1 - base.slot),
            None => (1, 0),
        };
        let written = self.write_frame(target, SNAPSHOT_FRAME_KIND, |enc| {
            enc.put_u64(seq);
            enc.put_bytes_with(write)
        })?;
        if !written {
            return Ok(None);
        }
        let check = u64::from_le_bytes(self.frame[self.frame.len() - 8..].try_into().unwrap());
        self.written = Some(Written {
            base: BaseSlot {
                seq,
                slot: target,
                check,
            },
            trusted: false,
            newest: seq,
        });
        Ok(Some(seq))
    }

    /// Saves a delta over the base generation `base`: the payload `write`
    /// appends patches that base's, and [`load`](Self::load) returns the
    /// two together. The delta goes to the slot not holding the base,
    /// replacing the delta before it. Returns its sequence number, or
    /// `Ok(None)` with nothing written when `write` declines or when
    /// `base` is not the base the newest generation depends on — then
    /// `write` is not called, and the caller saves a base instead.
    pub fn save_delta_with(
        &mut self,
        base: u64,
        write: impl FnOnce(&mut Encoder) -> bool,
    ) -> std::io::Result<Option<u64>> {
        let Some((held, newest)) = self.current_base().filter(|(b, _)| b.seq == base) else {
            return Ok(None);
        };
        let seq = newest + 1;
        let written = self.write_frame(1 - held.slot, SNAPSHOT_DELTA_FRAME_KIND, |enc| {
            enc.put_u64(seq);
            enc.put_u64(held.seq);
            enc.put_u64(held.check);
            enc.put_bytes_with(write)
        })?;
        if !written {
            return Ok(None);
        }
        if let Some(w) = self.written.as_mut() {
            w.newest = seq;
        }
        Ok(Some(seq))
    }

    /// Builds one frame of `kind` into the retained buffer and, unless
    /// `body` declines, writes it to `target`.
    fn write_frame(
        &mut self,
        target: usize,
        kind: u16,
        body: impl FnOnce(&mut Encoder) -> bool,
    ) -> std::io::Result<bool> {
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        let mut enc = Encoder::over(frame);
        let written = enc.put_frame(kind, SNAPSHOT_FRAME_VERSION, body);
        self.frame = enc.into_bytes();
        if !written {
            return Ok(false);
        }
        // A failed write leaves the target slot in an unknown state.
        let remembered = self.written.take();
        self.medium.write_slot(target, &self.frame)?;
        self.written = remembered;
        Ok(true)
    }
}

/// Append-only record journal with per-record framing and a tolerant
/// reader.
///
/// Each record is stored as `len:u32 | check:u64 | payload`, checksummed
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
            if end > bytes.len() || frame_checksum64(&bytes[pos + 12..end]) != stored {
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
            .extend_from_slice(&frame_checksum64(payload).to_le_bytes());
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

    /// The record checksum reads words: a flip of any bit of any word of
    /// a multi-word record — payload, tail or the stored checksum itself
    /// — drops that record and everything after it.
    #[test]
    fn journal_detects_a_flip_in_every_word_of_a_record() {
        let mut journal = Journal::new();
        journal.append(b"first");
        let payload: Vec<u8> = (0..43u8).map(|i| i.wrapping_mul(37)).collect();
        journal.append(&payload);
        journal.append(b"third");
        let start = 12 + b"first".len();
        // The record's checksum word, then its payload words (the last
        // one short).
        let words = std::iter::once(start + 4..start + 12).chain(
            (start + 12..start + 12 + payload.len())
                .step_by(8)
                .map(|at| at..(at + 8).min(start + 12 + payload.len())),
        );
        for word in words {
            for byte in word {
                for bit in 0..8 {
                    let mut flipped = journal.bytes().to_vec();
                    flipped[byte] ^= 1 << bit;
                    let recovered = Journal::from_bytes(&flipped);
                    assert_eq!(recovered.records(), 1, "byte {byte} bit {bit}");
                    assert_eq!(recovered.record(0), Some(b"first".as_slice()));
                }
            }
        }
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
