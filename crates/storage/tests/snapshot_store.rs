//! [`SnapshotStore`] against an oracle that shares none of its code
//! paths: the stateless store it replaced, which validated both slots on
//! every load and every save and framed by copying.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use lakesim_storage::snapshot::{SNAPSHOT_FRAME_KIND, SNAPSHOT_FRAME_VERSION};
use lakesim_storage::{
    open_frame, seal_frame, Decoder, Encoder, MemSnapshotMedium, SnapshotMedium, SnapshotStore,
};

// ---------------------------------------------------------------------
// The reference: every answer derived from the medium alone.
// ---------------------------------------------------------------------

fn ref_valid_slot(medium: &impl SnapshotMedium, slot: usize) -> Option<(u64, Vec<u8>)> {
    let bytes = medium.read_slot(slot)?;
    let frame = open_frame(&bytes, SNAPSHOT_FRAME_KIND, SNAPSHOT_FRAME_VERSION).ok()?;
    let mut dec = Decoder::new(frame.payload);
    let seq = dec.take_u64("snapshot sequence").ok()?;
    let payload = dec.take_bytes("snapshot payload").ok()?;
    dec.finish().ok()?;
    Some((seq, payload.to_vec()))
}

fn ref_load(medium: &impl SnapshotMedium) -> Option<(u64, Vec<u8>)> {
    match (ref_valid_slot(medium, 0), ref_valid_slot(medium, 1)) {
        (Some(a), Some(b)) => Some(if a.0 >= b.0 { a } else { b }),
        (a, b) => a.or(b),
    }
}

/// `(sequence, target slot)` of the next save.
fn ref_next_generation(medium: &impl SnapshotMedium) -> (u64, usize) {
    match (ref_valid_slot(medium, 0), ref_valid_slot(medium, 1)) {
        (Some((a, _)), Some((b, _))) => (a.max(b) + 1, if a >= b { 1 } else { 0 }),
        (Some((a, _)), None) => (a + 1, 1),
        (None, Some((b, _))) => (b + 1, 0),
        (None, None) => (1, 0),
    }
}

/// The slot bytes of generation `seq`, framed by copying.
fn ref_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(seq);
    enc.put_bytes(payload);
    seal_frame(
        SNAPSHOT_FRAME_KIND,
        SNAPSHOT_FRAME_VERSION,
        &enc.into_bytes(),
    )
}

// ---------------------------------------------------------------------
// The medium under test: records what the store hands it and can tear a
// write it acknowledges, armed from outside so `medium_mut()` (which
// makes the store forget what it wrote) is not involved.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Probe {
    /// The next write keeps only this many bytes and still returns `Ok`.
    tear_next_at: Cell<Option<usize>>,
    /// `(slot, bytes)` of every `write_slot`, before any tear.
    writes: RefCell<Vec<(usize, Vec<u8>)>>,
    /// `read_slot` calls per slot.
    reads: [Cell<u32>; 2],
}

struct ProbedMedium {
    inner: MemSnapshotMedium,
    probe: Rc<Probe>,
}

impl SnapshotMedium for ProbedMedium {
    fn read_slot(&self, slot: usize) -> Option<Vec<u8>> {
        let reads = &self.probe.reads[slot];
        reads.set(reads.get() + 1);
        self.inner.read_slot(slot)
    }
    fn write_slot(&mut self, slot: usize, bytes: &[u8]) -> std::io::Result<()> {
        self.probe.writes.borrow_mut().push((slot, bytes.to_vec()));
        let keep = self.probe.tear_next_at.take().unwrap_or(bytes.len());
        self.inner.write_slot(slot, &bytes[..keep.min(bytes.len())])
    }
}

fn probed_store() -> (SnapshotStore<ProbedMedium>, Rc<Probe>) {
    let probe = Rc::new(Probe::default());
    let medium = ProbedMedium {
        inner: MemSnapshotMedium::new(),
        probe: probe.clone(),
    };
    (SnapshotStore::new(medium), probe)
}

/// Saves `payload` and checks the sequence, the target slot and the bytes
/// handed to the medium against the reference.
fn save_checked(store: &mut SnapshotStore<ProbedMedium>, probe: &Probe, payload: &[u8], at: &str) {
    let (seq, target) = ref_next_generation(store.medium());
    assert_eq!(store.save(payload).unwrap(), seq, "{at}");
    let written = probe.writes.borrow_mut().pop().expect("one write per save");
    assert_eq!(written, (target, ref_frame(seq, payload)), "{at}");
}

/// splitmix64: the test's only source of randomness, so a failure names
/// its seed and step.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn payload(&mut self) -> Vec<u8> {
        (0..self.below(48)).map(|_| self.next() as u8).collect()
    }
}

#[test]
fn store_agrees_with_the_stateless_reference_under_random_faults() {
    for seed in 0..200u64 {
        let mut rng = Rng(seed);
        let (mut store, probe) = probed_store();
        for step in 0..60 {
            let at = format!("seed {seed} step {step}");
            match rng.below(8) {
                0 | 1 => save_checked(&mut store, &probe, &rng.payload(), &at),
                // A save the medium acknowledges but tears, anywhere from
                // before the header to one byte short of whole.
                2 => {
                    let payload = rng.payload();
                    let whole = ref_frame(0, &payload).len();
                    probe.tear_next_at.set(Some(rng.below(whole)));
                    save_checked(&mut store, &probe, &payload, &at);
                }
                // A bit flip in a slot at rest.
                3 => {
                    let slot = rng.below(2);
                    if let Some(mut bytes) = store.medium().read_slot(slot) {
                        if !bytes.is_empty() {
                            let i = rng.below(bytes.len());
                            bytes[i] ^= 1 << rng.below(8);
                            store.medium_mut().inner.write_slot(slot, &bytes).unwrap();
                        }
                    }
                }
                // A whole generation planted in a slot from outside, e.g.
                // an operator restoring one; it may outrank the store's own.
                4 => {
                    let frame = ref_frame(rng.below(12) as u64, &rng.payload());
                    let slot = rng.below(2);
                    store.medium_mut().inner.write_slot(slot, &frame).unwrap();
                }
                // A restart that builds a new store over the medium. (One
                // that keeps the store object is every other step.)
                5 => {
                    let medium = ProbedMedium {
                        inner: store.medium().inner.clone(),
                        probe: probe.clone(),
                    };
                    store = SnapshotStore::new(medium);
                }
                _ => {}
            }
            assert_eq!(store.load(), ref_load(store.medium()), "{at}");
        }
    }
}

#[test]
fn torn_but_acknowledged_saves_never_cost_the_last_valid_generation() {
    let (mut store, probe) = probed_store();
    store.save(b"one").unwrap();
    probe.tear_next_at.set(Some(30));
    assert_eq!(store.save(b"two").unwrap(), 2);
    // No load in between: a store that trusted its memory of having
    // written "two" would aim this one at the slot holding "one".
    probe.tear_next_at.set(Some(7));
    assert_eq!(store.save(b"three").unwrap(), 2);
    assert_eq!(store.load().unwrap(), (1, b"one".to_vec()));
    assert_eq!(store.save(b"four").unwrap(), 2);
    assert_eq!(store.load().unwrap(), (2, b"four".to_vec()));
    assert_eq!(store.save(b"five").unwrap(), 3);
    assert_eq!(store.load().unwrap(), (3, b"five".to_vec()));
}

#[test]
fn a_declined_save_writes_nothing_and_uses_no_sequence_number() {
    let (mut store, probe) = probed_store();
    save_checked(&mut store, &probe, b"a fixed payload", "first");
    let declined = store.save_with(|enc| {
        enc.put_raw(b"abandoned half way");
        false
    });
    assert_eq!(declined.unwrap(), None);
    assert!(probe.writes.borrow().is_empty());
    assert_eq!(store.load().unwrap(), (1, b"a fixed payload".to_vec()));
    save_checked(&mut store, &probe, b"the next one", "second");
    assert_eq!(store.load().unwrap(), (2, b"the next one".to_vec()));
}

// ---------------------------------------------------------------------
// Delta generations, against a reference that knows both slot kinds and
// again derives every answer from the medium alone.
// ---------------------------------------------------------------------

use lakesim_storage::snapshot::SNAPSHOT_DELTA_FRAME_KIND;

/// A slot that validates: its sequence, the `(sequence, check)` of the
/// base it names if it is a delta, its payload, and the checksum sealing
/// it.
struct RefSlot {
    seq: u64,
    base: Option<(u64, u64)>,
    payload: Vec<u8>,
    check: u64,
}

fn ref_open(medium: &impl SnapshotMedium, slot: usize) -> Option<RefSlot> {
    let bytes = medium.read_slot(slot)?;
    let (kind, frame) = [SNAPSHOT_FRAME_KIND, SNAPSHOT_DELTA_FRAME_KIND]
        .into_iter()
        .find_map(|kind| Some((kind, open_frame(&bytes, kind, SNAPSHOT_FRAME_VERSION).ok()?)))?;
    let mut dec = Decoder::new(frame.payload);
    let seq = dec.take_u64("sequence").ok()?;
    let base = match kind == SNAPSHOT_DELTA_FRAME_KIND {
        true => Some((dec.take_u64("base").ok()?, dec.take_u64("check").ok()?)),
        false => None,
    };
    let payload = dec.take_bytes("payload").ok()?.to_vec();
    dec.finish().ok()?;
    let check = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    Some(RefSlot {
        seq,
        base,
        payload,
        check,
    })
}

/// Every restorable generation on the medium as `(sequence, slot of its
/// base, payload)`: a base alone, or a delta whose other slot holds the
/// base it names, intact, with the base's payload first. A delta with a
/// missing or corrupt base is none.
fn ref_restorable(medium: &impl SnapshotMedium) -> Vec<(u64, usize, Vec<u8>)> {
    let slots = [ref_open(medium, 0), ref_open(medium, 1)];
    (0..2)
        .filter_map(|i| {
            let slot = slots[i].as_ref()?;
            match slot.base {
                None => Some((slot.seq, i, slot.payload.clone())),
                Some(named) => {
                    let base = slots[1 - i].as_ref().filter(|b| b.base.is_none())?;
                    ((base.seq, base.check) == named)
                        .then(|| (slot.seq, 1 - i, [&base.payload[..], &slot.payload].concat()))
                }
            }
        })
        .collect()
}

/// The newest restorable generation: the highest sequence, slot 0's on a
/// tie.
fn ref_newest(medium: &impl SnapshotMedium) -> Option<(u64, usize, Vec<u8>)> {
    ref_restorable(medium)
        .into_iter()
        .reduce(|a, b| if b.0 > a.0 { b } else { a })
}

fn ref_load_with_deltas(medium: &impl SnapshotMedium) -> Option<(u64, Vec<u8>)> {
    ref_newest(medium).map(|(seq, _, payload)| (seq, payload))
}

/// The slot bytes of a delta, framed by copying.
fn ref_delta_frame(seq: u64, base: u64, check: u64, payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(seq);
    enc.put_u64(base);
    enc.put_u64(check);
    enc.put_bytes(payload);
    seal_frame(
        SNAPSHOT_DELTA_FRAME_KIND,
        SNAPSHOT_FRAME_VERSION,
        &enc.into_bytes(),
    )
}

/// The checksum sealing a slot's bytes.
fn check_of(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[frame.len() - 8..].try_into().unwrap())
}

/// Saves a base and checks it against the reference: it never lands in
/// the slot holding the newest restorable generation's base, and it
/// outranks that generation.
fn save_base_checked(
    store: &mut SnapshotStore<ProbedMedium>,
    probe: &Probe,
    payload: &[u8],
    at: &str,
) {
    let before = ref_newest(store.medium());
    let seq = store.save(payload).unwrap();
    let (target, bytes) = probe.writes.borrow_mut().pop().expect("one write per save");
    assert_eq!(bytes, ref_frame(seq, payload), "{at}");
    if let Some((newest, base_slot, _)) = before {
        assert_ne!(target, base_slot, "{at}: a base overwrote the base in use");
        assert!(seq > newest, "{at}");
    }
}

/// Saves a delta over `base` and checks it against the reference: it is
/// written exactly when `base` is the newest restorable generation's
/// base, into the other slot, naming that base's slot checksum. Returns
/// whether it was written.
fn save_delta_checked(
    store: &mut SnapshotStore<ProbedMedium>,
    probe: &Probe,
    base: u64,
    payload: &[u8],
    at: &str,
) -> bool {
    let before = ref_newest(store.medium());
    let held = before.as_ref().and_then(|(_, slot, _)| {
        let opened = ref_open(store.medium(), *slot)?;
        Some((opened.seq, *slot, opened.check))
    });
    let saved = store
        .save_delta_with(base, |enc| {
            enc.put_raw(payload);
            true
        })
        .unwrap();
    match held.filter(|(seq, _, _)| *seq == base) {
        Some((_, base_slot, check)) => {
            let seq =
                saved.unwrap_or_else(|| panic!("{at}: a delta over the base in use declined"));
            assert!(seq > before.as_ref().unwrap().0, "{at}");
            let written = probe.writes.borrow_mut().pop().expect("one write per save");
            assert_eq!(
                written,
                (1 - base_slot, ref_delta_frame(seq, base, check, payload)),
                "{at}"
            );
            true
        }
        None => {
            assert_eq!(
                saved, None,
                "{at}: a delta over a base not in use was written"
            );
            assert!(probe.writes.borrow().is_empty(), "{at}");
            false
        }
    }
}

#[test]
fn store_with_deltas_agrees_with_the_stateless_reference_under_random_faults() {
    let (deltas, restored_deltas) = delta_fuzz(|store, at| {
        assert_eq!(store.load(), ref_load_with_deltas(store.medium()), "{at}");
    });
    // The loop exercises the delta path, not only declines.
    assert!(
        deltas > 2_000 && restored_deltas > 2_000,
        "{deltas} deltas, {restored_deltas} loads"
    );
}

/// The delta fuzz loop: 200 seeds of 80 steps, each a save of either
/// kind (over the base in use, or one that is gone), a torn save, a bit
/// flip at rest, a generation planted from outside or a restart that
/// builds a new store. `check` sees the store after every step. Returns
/// the deltas written and the steps whose newest generation is a delta.
fn delta_fuzz(mut check: impl FnMut(&SnapshotStore<ProbedMedium>, &str)) -> (u32, u32) {
    let (mut deltas, mut restored_deltas) = (0, 0);
    for seed in 0..200u64 {
        let mut rng = Rng(seed);
        let (mut store, probe) = probed_store();
        for step in 0..80 {
            let at = format!("seed {seed} step {step}");
            // The base a delta names: mostly the one in use, sometimes
            // one that is gone.
            let in_use = ref_newest(store.medium())
                .and_then(|(_, slot, _)| ref_open(store.medium(), slot))
                .map_or(0, |b| b.seq);
            let base = if rng.below(6) == 0 {
                rng.below(12) as u64
            } else {
                in_use
            };
            match rng.below(10) {
                0 | 1 => save_base_checked(&mut store, &probe, &rng.payload(), &at),
                2..=4 => {
                    deltas +=
                        save_delta_checked(&mut store, &probe, base, &rng.payload(), &at) as u32
                }
                // A save of either kind the medium acknowledges but
                // tears.
                5 => {
                    let payload = rng.payload();
                    probe
                        .tear_next_at
                        .set(Some(rng.below(ref_frame(0, &payload).len() + 16)));
                    match rng.below(2) {
                        0 => save_base_checked(&mut store, &probe, &payload, &at),
                        _ => {
                            save_delta_checked(&mut store, &probe, base, &payload, &at);
                        }
                    }
                    probe.tear_next_at.set(None);
                }
                // A bit flip in a slot at rest.
                6 => {
                    let slot = rng.below(2);
                    if let Some(mut bytes) = store.medium().read_slot(slot) {
                        if !bytes.is_empty() {
                            let i = rng.below(bytes.len());
                            bytes[i] ^= 1 << rng.below(8);
                            store.medium_mut().inner.write_slot(slot, &bytes).unwrap();
                        }
                    }
                }
                // A generation of either kind planted from outside; a
                // planted delta names whatever the other slot holds, or
                // a base that is not there.
                7 => {
                    let slot = rng.below(2);
                    let seq = rng.below(12) as u64;
                    let frame = match rng.below(2) {
                        0 => ref_frame(seq, &rng.payload()),
                        _ => {
                            let other = ref_open(store.medium(), 1 - slot);
                            let (b, check) = match other.filter(|_| rng.below(4) != 0) {
                                Some(o) => (o.seq, o.check),
                                None => (rng.below(12) as u64, rng.next()),
                            };
                            ref_delta_frame(seq, b, check, &rng.payload())
                        }
                    };
                    store.medium_mut().inner.write_slot(slot, &frame).unwrap();
                }
                // A restart that builds a new store over the medium.
                8 => {
                    let medium = ProbedMedium {
                        inner: store.medium().inner.clone(),
                        probe: probe.clone(),
                    };
                    store = SnapshotStore::new(medium);
                }
                _ => {}
            }
            check(&store, &at);
            restored_deltas += ref_newest(store.medium()).is_some_and(|(seq, slot, _)| {
                ref_open(store.medium(), slot).is_some_and(|base| base.seq != seq)
            }) as u32;
        }
    }
    (deltas, restored_deltas)
}

/// `load_generation` and `load` agree on every step of the delta fuzz
/// loop: the same sequence and the same payloads. The base's payload and
/// sequence are those of the slot holding the newest generation's base,
/// and a delta's payload is the other slot's, which names that base.
#[test]
fn load_generation_agrees_with_load_on_every_step_of_the_delta_fuzz() {
    delta_fuzz(|store, at| {
        let generation = store.load_generation().ok();
        let joined = generation.as_ref().map(|g| {
            let (base, delta) = g.payloads();
            (g.seq(), [base, delta.unwrap_or_default()].concat())
        });
        assert_eq!(joined, store.load(), "{at}");
        let Some(g) = generation else {
            return;
        };
        let (_, slot, _) = ref_newest(store.medium()).expect("a restorable generation");
        let base = ref_open(store.medium(), slot).expect("its base validates");
        assert_eq!(g.base_seq(), base.seq, "{at}");
        let (base_payload, delta_payload) = g.payloads();
        assert_eq!(base_payload, &base.payload[..], "{at}");
        if let Some(delta_payload) = delta_payload {
            let delta = ref_open(store.medium(), 1 - slot).expect("the delta validates");
            assert_eq!(delta.base, Some((base.seq, base.check)), "{at}");
            assert_eq!(delta_payload, &delta.payload[..], "{at}");
        }
    });
}

/// The delta of a slot that validates while the other slot does not hold
/// the base it names intact, slot 0's first: why nothing restores, when
/// that is the reason.
fn ref_missing_base(medium: &impl SnapshotMedium) -> Option<(u64, u64)> {
    let slots = [ref_open(medium, 0), ref_open(medium, 1)];
    (0..2).find_map(|i| {
        let (base, check) = slots[i].as_ref()?.base?;
        let held = slots[1 - i]
            .as_ref()
            .is_some_and(|b| b.base.is_none() && (b.seq, b.check) == (base, check));
        (!held).then(|| (slots[i].as_ref().unwrap().seq, base))
    })
}

/// A load that finds nothing restorable reads each slot once and names
/// the delta whose base is missing from what it read, on every step of
/// the delta fuzz loop that leaves nothing restorable.
#[test]
fn a_failed_load_reads_each_slot_once_and_names_the_missing_base() {
    let (mut failed, mut named) = (0, 0);
    delta_fuzz(|store, at| {
        let probe = &store.medium().probe;
        probe.reads.iter().for_each(|reads| reads.set(0));
        let Err(missing) = store.load_generation() else {
            return;
        };
        let reads = probe.reads.each_ref().map(Cell::get);
        assert_eq!(reads, [1, 1], "{at}");
        assert_eq!(missing, ref_missing_base(store.medium()), "{at}");
        assert_eq!(ref_newest(store.medium()), None, "{at}");
        failed += 1;
        named += missing.is_some() as u32;
    });
    assert!(named > 0 && named < failed, "{named} of {failed}");
}

/// A restart that builds a new store, remembering nothing, resumes the
/// delta chain: a delta over the base sequence `load_generation`
/// reports is written, replaces the old delta, and `load` returns the
/// base followed by the new delta, never the old one.
#[test]
fn a_new_store_writes_a_delta_over_the_base_load_generation_reports() {
    let delta = |store: &mut SnapshotStore<ProbedMedium>, base, payload: &'static [u8]| {
        store
            .save_delta_with(base, |enc| {
                enc.put_raw(payload);
                true
            })
            .unwrap()
    };
    let (mut store, probe) = probed_store();
    assert_eq!(store.save(b"base one").unwrap(), 1);
    assert_eq!(delta(&mut store, 1, b"+two"), Some(2));

    let mut store = SnapshotStore::new(ProbedMedium {
        inner: store.medium().inner.clone(),
        probe,
    });
    let generation = store.load_generation().expect("base + delta");
    assert_eq!((generation.seq(), generation.base_seq()), (2, 1));
    assert_eq!(
        generation.payloads(),
        (&b"base one"[..], Some(&b"+two"[..]))
    );
    assert_eq!(delta(&mut store, generation.base_seq(), b"+three"), Some(3));
    assert_eq!(store.load().unwrap(), (3, b"base one+three".to_vec()));
    assert_eq!(store.load_generation().unwrap().base_seq(), 1);

    // The same holds for a base alone.
    let seq = store.save(b"base four").unwrap();
    let mut store = SnapshotStore::new(ProbedMedium {
        inner: store.medium().inner.clone(),
        probe: Rc::new(Probe::default()),
    });
    let generation = store.load_generation().expect("a base");
    assert_eq!((generation.seq(), generation.base_seq()), (seq, seq));
    assert_eq!(generation.payloads(), (&b"base four"[..], None));
    assert_eq!(delta(&mut store, seq, b"+five"), Some(seq + 1));
    assert_eq!(store.load().unwrap(), (seq + 1, b"base four+five".to_vec()));
}

#[test]
fn a_torn_but_acknowledged_new_base_keeps_the_old_base_restorable() {
    let (mut store, probe) = probed_store();
    let delta = |store: &mut SnapshotStore<ProbedMedium>, base, payload: &'static [u8]| {
        store
            .save_delta_with(base, |enc| {
                enc.put_raw(payload);
                true
            })
            .unwrap()
    };
    assert_eq!(store.save(b"base one").unwrap(), 1);
    assert_eq!(delta(&mut store, 1, b"+two"), Some(2));
    assert_eq!(delta(&mut store, 1, b"+three"), Some(3));
    assert_eq!(store.load().unwrap(), (3, b"base one+three".to_vec()));
    let check_of_one = check_of(&store.medium().read_slot(0).unwrap());

    // The new base replaces the newest delta, not the base it patches,
    // and tears: the old base alone is what survives.
    probe.tear_next_at.set(Some(40));
    assert_eq!(store.save(b"base four").unwrap(), 4);
    assert_eq!(probe.writes.borrow().last().unwrap().0, 1);
    assert_eq!(store.load().unwrap(), (1, b"base one".to_vec()));

    // No load in between: a delta over the torn base finds it invalid
    // and writes nothing, so the old base is never overwritten.
    probe.writes.borrow_mut().clear();
    assert_eq!(delta(&mut store, 4, b"+five"), None);
    assert!(probe.writes.borrow().is_empty());
    assert_eq!(
        check_of(&store.medium().read_slot(0).unwrap()),
        check_of_one
    );

    // A base written whole takes over, and deltas follow it into the
    // old base's slot.
    let seq = store.save(b"base five").unwrap();
    assert_eq!(store.load().unwrap(), (seq, b"base five".to_vec()));
    assert_eq!(delta(&mut store, seq, b"+six"), Some(seq + 1));
    assert_eq!(probe.writes.borrow().last().unwrap().0, 0);
    assert_eq!(store.load().unwrap(), (seq + 1, b"base five+six".to_vec()));
}

/// `read_slot` calls per slot since the last call, which resets them.
fn reads_since(probe: &Probe) -> [u32; 2] {
    probe.reads.each_ref().map(|reads| reads.replace(0))
}

/// A restart that resumes the store saves without reading a slot, a
/// delta and a base alike, where one that only loads reads both slots
/// at its first save. Handing out `medium_mut` forgets what the resume
/// remembered, and the next save reads both slots again.
#[test]
fn a_resumed_store_saves_without_reading_until_medium_mut() {
    let delta = |store: &mut SnapshotStore<ProbedMedium>, base, payload: &'static [u8]| {
        store
            .save_delta_with(base, |enc| {
                enc.put_raw(payload);
                true
            })
            .unwrap()
    };
    let restart = |store: &SnapshotStore<ProbedMedium>, probe: &Rc<Probe>| {
        SnapshotStore::new(ProbedMedium {
            inner: store.medium().inner.clone(),
            probe: Rc::clone(probe),
        })
    };
    let (mut store, probe) = probed_store();
    assert_eq!(store.save(b"base one").unwrap(), 1);
    assert_eq!(delta(&mut store, 1, b"+two"), Some(2));

    // Loading only, the first save after the restart reads both.
    let mut loaded = restart(&store, &probe);
    let generation = loaded.load_generation().expect("base + delta");
    reads_since(&probe);
    assert_eq!(
        delta(&mut loaded, generation.base_seq(), b"+three"),
        Some(3)
    );
    assert_eq!(reads_since(&probe), [1, 1]);

    // Resuming, it reads none, and writes what the loading store wrote.
    let mut store = restart(&store, &probe);
    let generation = store.resume().expect("base + delta");
    assert_eq!((generation.seq(), generation.base_seq()), (2, 1));
    reads_since(&probe);
    assert_eq!(delta(&mut store, generation.base_seq(), b"+three"), Some(3));
    assert_eq!(reads_since(&probe), [0, 0]);
    assert_eq!(
        store.medium().inner.read_slot(1),
        loaded.medium().inner.read_slot(1)
    );
    assert_eq!(store.load().unwrap(), (3, b"base one+three".to_vec()));

    // A base after resuming at a base alone reads none either.
    let seq = store.save(b"base four").unwrap();
    let mut store = restart(&store, &probe);
    assert_eq!(store.resume().expect("a base").base_seq(), seq);
    reads_since(&probe);
    assert_eq!(store.save(b"base five").unwrap(), seq + 1);
    assert_eq!(reads_since(&probe), [0, 0]);
    assert_eq!(store.load().unwrap(), (seq + 1, b"base five".to_vec()));

    // `medium_mut` forgets what the resume remembered: the next save
    // reads both slots.
    store.resume().expect("a base");
    store.medium_mut();
    reads_since(&probe);
    assert_eq!(delta(&mut store, seq + 1, b"+six"), Some(seq + 2));
    assert_eq!(reads_since(&probe), [1, 1]);
}

/// Slots 0 and 1 are the only slots of either medium: any other reads
/// `None`, and a write to it fails with `InvalidInput` and leaves both
/// real slots as they were.
fn out_of_range_slots_touch_nothing(medium: &mut impl SnapshotMedium) {
    medium.write_slot(0, b"zero").unwrap();
    medium.write_slot(1, b"one").unwrap();
    for slot in [2, 3, usize::MAX] {
        let err = medium.write_slot(slot, b"stray").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "slot {slot}");
        assert_eq!(medium.read_slot(slot), None, "slot {slot}");
    }
    assert_eq!(medium.read_slot(0), Some(b"zero".to_vec()));
    assert_eq!(medium.read_slot(1), Some(b"one".to_vec()));
}

#[test]
fn a_slot_other_than_0_or_1_reads_none_and_refuses_writes() {
    out_of_range_slots_touch_nothing(&mut MemSnapshotMedium::new());
    let dir = std::env::temp_dir().join(format!("lakesim-slot-range-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    out_of_range_slots_touch_nothing(&mut lakesim_storage::DirSnapshotMedium::new(&dir).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
