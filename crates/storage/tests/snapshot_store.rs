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
}

struct ProbedMedium {
    inner: MemSnapshotMedium,
    probe: Rc<Probe>,
}

impl SnapshotMedium for ProbedMedium {
    fn read_slot(&self, slot: usize) -> Option<Vec<u8>> {
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
