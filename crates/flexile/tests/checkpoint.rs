//! Checkpoint codec robustness:
//!
//! * **Round-trip** — `encode ∘ decode` is the identity on arbitrary
//!   checkpoint states (bit-exact for every `f64`, including infinities).
//! * **Corruption rejection** — any single bit flip, any truncation, a
//!   version bump, bad magic, or trailing garbage yields a typed
//!   [`CheckpointError`], never a panic, an OOM, or silent garbage; so
//!   does a checksum-valid payload whose stored warm basis is inconsistent.
//! * **Atomicity** — `write_checkpoint` leaves no temp file behind and
//!   `read_checkpoint` round-trips through the filesystem.

use flexile_core::checkpoint::{
    decode, encode, read_checkpoint, write_checkpoint, BestIncumbent, CheckpointState,
    CHECKPOINT_VERSION, OPTIONS_COMPONENTS, PROBLEM_COMPONENTS,
};
use flexile_core::subproblem::Cut;
use flexile_core::{CheckpointError, IterationStat};
use flexile_lp::Basis;
use proptest::prelude::*;
use std::path::PathBuf;

/// Splitmix64: cheap deterministic stream for filling in state fields from
/// a proptest-drawn seed (the shim's strategies draw scalars; nesting a
/// whole struct generator is more machinery than the codec needs).
struct Mix(u64);

impl Mix {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    fn f64(&mut self) -> f64 {
        // Finite, mixed-sign, mixed-magnitude; occasionally +∞ (the
        // `cached_value` sentinel). Never NaN: the round-trip asserts
        // `PartialEq` on the decoded struct.
        match self.u64() % 8 {
            0 => f64::INFINITY,
            1 => 0.0,
            2 => -(self.u64() as f64) / 1e6,
            _ => (self.u64() >> 11) as f64 / (1u64 << 53) as f64,
        }
    }
    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }
}

/// A random valid warm basis: a random subset of up to 12 structural and
/// slack columns is basic, in random order, sometimes next to a phase-1
/// artificial; every other column gets a random nonbasic status.
fn arb_basis(m: &mut Mix) -> Basis {
    let cols = 1 + (m.u64() % 12) as usize;
    let mut tags: Vec<u8> = (0..cols).map(|_| 1 + (m.u64() % 3) as u8).collect();
    let mut order: Vec<usize> = (0..cols).filter(|_| m.bool()).collect();
    for &j in &order {
        tags[j] = 0;
    }
    if m.bool() {
        order.push(cols + order.len());
    }
    for i in (1..order.len()).rev() {
        order.swap(i, (m.u64() % (i as u64 + 1)) as usize);
    }
    Basis::from_tags(order, &tags).expect("a valid basis")
}

/// Build a structurally consistent checkpoint state of the given shape.
fn arb_state(seed: u64, nf: usize, nq: usize, na: usize, iters: usize) -> CheckpointState {
    let mut m = Mix(seed);
    let bits = |m: &mut Mix, n: usize| -> Vec<bool> { (0..n).map(|_| m.bool()).collect() };
    let f64s = |m: &mut Mix, n: usize| -> Vec<f64> { (0..n).map(|_| m.f64()).collect() };
    let cut = |m: &mut Mix| Cut { w: f64s(m, nf), u: f64s(m, na), d_const: m.f64() };
    CheckpointState {
        problem_parts: std::array::from_fn(|_| m.u64()),
        options_parts: std::array::from_fn(|_| m.u64()),
        nf,
        nq,
        na,
        it: iters.max(1),
        done: m.bool(),
        z: (0..nf).map(|_| bits(&mut m, nq)).collect(),
        cuts: (0..nq)
            .map(|q| (0..(q % 3)).map(|_| cut(&mut m)).collect())
            .collect(),
        cached_loss: (0..nq)
            .map(|q| if q % 4 == 3 { None } else { Some(f64s(&mut m, nf)) })
            .collect(),
        cached_value: f64s(&mut m, nq),
        last_z_col: (0..nq)
            .map(|q| if q % 5 == 4 { None } else { Some(bits(&mut m, nf)) })
            .collect(),
        perfect: bits(&mut m, nq),
        stamps: (0..nq).map(|_| m.u64() % 64).collect(),
        bases: (0..nq)
            .map(|_| match m.u64() % 3 {
                0 => None,
                1 => Some(None),
                _ => Some(Some(arb_basis(&mut m))),
            })
            .collect(),
        best: if seed.is_multiple_of(7) {
            None
        } else {
            Some(BestIncumbent {
                penalty: m.f64(),
                critical: (0..nf).map(|_| bits(&mut m, nq)).collect(),
                loss: (0..nf).map(|_| f64s(&mut m, nq)).collect(),
                alpha: f64s(&mut m, 2),
            })
        },
        iterations: (1..=iters)
            .map(|i| IterationStat {
                iteration: i,
                penalty: m.f64(),
                solved: (m.u64() % 100) as usize,
                pruned: (m.u64() % 100) as usize,
                lp_iterations: (m.u64() % 10_000) as usize,
                warm_hits: (m.u64() % 100) as usize,
                dual_restarts: (m.u64() % 100) as usize,
            })
            .collect(),
        last_bound: if m.bool() { Some(m.f64()) } else { None },
        betas: f64s(&mut m, 2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_trip_is_identity(
        seed in 0u64..u64::MAX,
        nf in 1usize..10,
        nq in 1usize..12,
        na in 1usize..8,
        iters in 1usize..6,
    ) {
        let state = arb_state(seed, nf, nq, na, iters);
        let blob = encode(&state);
        let back = decode(&blob).expect("round-trip decode");
        prop_assert_eq!(back, state);
    }

    #[test]
    fn any_bit_flip_is_rejected(
        seed in 0u64..u64::MAX,
        flip in 0u64..u64::MAX,
    ) {
        let state = arb_state(seed, 3, 5, 4, 2);
        let mut blob = encode(&state);
        let bit = (flip % (blob.len() as u64 * 8)) as usize;
        blob[bit / 8] ^= 1 << (bit % 8);
        // A flipped header field trips magic/version/length validation; a
        // flipped payload bit trips the checksum. Either way: typed error,
        // no panic — or, for a flip that cancels out nowhere, at minimum
        // not the original state parsed silently wrong.
        match decode(&blob) {
            Err(_) => {}
            Ok(back) => prop_assert!(false, "corrupted blob decoded: {:?} bit {}", back.it, bit),
        }
    }

    #[test]
    fn any_truncation_is_rejected(
        seed in 0u64..u64::MAX,
        cut_at in 0u64..u64::MAX,
    ) {
        let state = arb_state(seed, 2, 4, 3, 1);
        let blob = encode(&state);
        let keep = (cut_at % blob.len() as u64) as usize;
        prop_assert!(decode(&blob[..keep]).is_err(), "prefix of {} bytes decoded", keep);
    }
}

#[test]
fn version_bump_is_refused() {
    // Both directions: a checkpoint from any earlier format (version 6
    // hashed the Hamming limit into the `master` options component) or a
    // newer one is a typed refusal, never a misparse.
    for v in (1..CHECKPOINT_VERSION).chain([CHECKPOINT_VERSION + 1]) {
        let state = arb_state(11, 2, 3, 2, 1);
        let mut blob = encode(&state);
        // Version is the u32 right after the 8-byte magic.
        blob[8..12].copy_from_slice(&v.to_le_bytes());
        assert_eq!(
            decode(&blob),
            Err(CheckpointError::VersionMismatch { found: v, expected: CHECKPOINT_VERSION })
        );
    }
}

#[test]
fn bad_magic_is_refused() {
    let state = arb_state(12, 2, 3, 2, 1);
    let mut blob = encode(&state);
    blob[0] = b'X';
    assert_eq!(decode(&blob), Err(CheckpointError::BadMagic));
    assert!(decode(b"").is_err());
    assert!(decode(b"FLX").is_err());
}

#[test]
fn trailing_bytes_are_refused() {
    let state = arb_state(13, 2, 3, 2, 1);
    let mut blob = encode(&state);
    blob.push(0);
    assert!(decode(&blob).is_err(), "trailing garbage accepted");
}

#[test]
fn hostile_length_fields_do_not_allocate() {
    // A payload whose first length field claims 2^60 elements must be
    // rejected by the remaining-bytes validation, not attempted.
    let state = arb_state(14, 2, 3, 2, 1);
    let mut blob = encode(&state);
    // Payload starts at byte 28 (8 magic + 4 version + 8 len + 8 checksum);
    // the first fields are the problem and options fingerprint parts (one
    // u64 each), then nf as a length-ish u64 — overwrite nf with a huge
    // value and fix the checksum so only the shape validation can object.
    let payload_start = 28;
    let nf_off = payload_start + 8 * (PROBLEM_COMPONENTS.len() + OPTIONS_COMPONENTS.len());
    let nf = (state.nf as u64).to_le_bytes();
    assert_eq!(blob[nf_off..nf_off + 8], nf, "the offset names nf");
    blob[nf_off..nf_off + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
    reseal(&mut blob);
    assert!(
        matches!(decode(&blob), Err(CheckpointError::Malformed(_))),
        "hostile length accepted"
    );
}

/// A payload whose last slot holds a fixed warm basis: five columns tagged
/// basic, lower, upper, basic, free, with order `[3, 0]`. Returns the
/// blob and the offset of the slot's outer tag byte in it. The fields
/// after the slots are empty, so their encoding is a fixed 18 bytes.
fn blob_with_basis() -> (Vec<u8>, usize) {
    let mut state = arb_state(15, 2, 3, 2, 1);
    let basis = Basis::from_tags(vec![3, 0], &[0, 1, 2, 0, 3]).expect("valid");
    state.bases = vec![None, None, Some(Some(basis))];
    state.best = None;
    state.iterations.clear();
    state.last_bound = None;
    state.betas.clear();
    let blob = encode(&state);
    assert_eq!(decode(&blob).as_ref(), Ok(&state));
    // Two opt tags, the order (u64 count + 2 u32s), the statuses (u64
    // count + 2 packed bytes), then best, iterations, last_bound, betas.
    let slot = blob.len() - 18 - (8 + 2 * 4) - (8 + 2) - 2;
    (blob, slot)
}

/// Recompute the header checksum after editing the payload.
fn reseal(blob: &mut [u8]) {
    let sum = fnv64_ref(&blob[28..]);
    blob[20..28].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn inconsistent_warm_bases_are_malformed() {
    let (blob, slot) = blob_with_basis();
    let order = slot + 2 + 8;
    let statuses = order + 2 * 4 + 8;
    let edits: [(&str, usize, u8, &str); 4] = [
        // A slot tag that is neither "absent" nor "resident".
        ("bad slot tag", slot, 2, "bool tag"),
        // Column 1 becomes basic (tags 0,0,2,0 packed low bits first),
        // but the order lists only 3 and 0.
        ("basic column missing from the order", statuses, 0b00_10_00_00, "warm basis"),
        // Order entry 0 names column 200, past any artificial.
        ("order index out of range", order, 200, "warm basis"),
        // Bits past the fifth status must be zero.
        ("nonzero status padding", statuses + 1, 0b0111, "nonzero status padding"),
    ];
    for (what, at, byte, msg) in edits {
        let mut bad = blob.clone();
        bad[at] = byte;
        reseal(&mut bad);
        assert_eq!(decode(&bad), Err(CheckpointError::Malformed(msg)), "{what}");
    }
}

/// Reference FNV-1a-64 (matches the codec's checksum).
fn fnv64_ref(bs: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bs {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "flexile-ckpt-test-{}-{}",
        std::process::id(),
        tag
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn filesystem_round_trip_is_atomic() {
    let dir = temp_dir("fsrt");
    let path = flexile_core::checkpoint::checkpoint_path(&dir);
    let state = arb_state(99, 4, 6, 5, 3);
    let bytes = write_checkpoint(&path, &state).expect("write");
    assert!(bytes > 0);
    // No temp file left behind; exactly the checkpoint itself.
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(entries, vec![std::ffi::OsString::from("flexile.ckpt")]);
    assert_eq!(read_checkpoint(&path).expect("read"), state);

    // Overwrite with a different state: the rename replaces atomically.
    let state2 = arb_state(100, 4, 6, 5, 3);
    write_checkpoint(&path, &state2).expect("rewrite");
    assert_eq!(read_checkpoint(&path).expect("reread"), state2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_file_is_io_error() {
    let dir = temp_dir("missing");
    let path = flexile_core::checkpoint::checkpoint_path(&dir);
    match read_checkpoint(&path) {
        Err(CheckpointError::Io(_)) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
}
