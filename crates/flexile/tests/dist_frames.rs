//! Wire-frame codec robustness, mirroring the checkpoint corruption
//! matrix (tests/checkpoint.rs) for the distributed protocol:
//!
//! * **Round-trip** — `encode_frame ∘ decode_frame` is the identity on
//!   arbitrary frames of every tag. Several payload types (`Instance`,
//!   `ScenarioSet`) deliberately do not implement `PartialEq`, so identity
//!   is asserted as re-encoded byte equality — strictly stronger than
//!   structural equality for an injective encoder.
//! * **Corruption rejection** — any single bit flip (header *or* payload),
//!   any truncation, a version bump, bad magic, and trailing garbage all
//!   yield a typed [`CheckpointError`], never a panic or silent garbage.
//!   (FNV-1a's per-byte update is bijective in the running state, so a
//!   same-length payload differing in any byte always changes the
//!   checksum.)
//! * **Hostile lengths** — a huge outer length prefix, and a huge *inner*
//!   vector length with a recomputed (valid) checksum, are rejected by
//!   remaining-bytes validation before any allocation.
//! * **Streams** — duplicated and interleaved frames in one byte stream
//!   each parse independently; a frame boundary never leaks state into the
//!   next frame.

use flexile_core::dist::frame::{
    decode_frame, encode_frame, Frame, Hello, Outcome, WireKnobs, WireProblem, FRAME_HEADER_LEN,
    FRAME_VERSION, MAX_FRAME_LEN,
};
use flexile_core::subproblem::Cut;
use flexile_core::CheckpointError;
use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions};
use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
use flexile_traffic::{ClassConfig, Instance};
use proptest::prelude::*;

/// Splitmix64 filler, same scheme as tests/checkpoint.rs.
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
    fn f64s(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.f64()).collect()
    }
    fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.bool()).collect()
    }
    fn cut(&mut self, nf: usize, na: usize) -> Cut {
        Cut { w: self.f64s(nf), u: self.f64s(na), d_const: self.f64() }
    }
}

/// A small but structurally complete problem (the Fig. 1 triangle) with
/// Mix-perturbed demands, satisfying every shape check in the decoder.
fn arb_problem(m: &mut Mix) -> WireProblem {
    let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
    let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
    let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
    let mut inst = Instance {
        topo,
        pairs,
        classes: vec![ClassConfig::single()],
        tunnels: vec![tunnels],
        demands: vec![vec![1.0 + (m.u64() % 7) as f64 * 0.25, 1.0]],
    };
    inst.classes[0].beta = 0.99;
    let units = link_units(&inst.topo, &[0.01, 0.01, 0.01]);
    let set = enumerate_scenarios(
        &units,
        3,
        &EnumOptions { prob_cutoff: 0.0, max_scenarios: 8, coverage_target: 2.0 },
    );
    let nq = set.scenarios.len();
    let nf = inst.num_flows();
    let loss_ub =
        if m.bool() { Some((0..nq).map(|_| m.f64s(nf)).collect()) } else { None };
    WireProblem { inst, set, loss_ub }
}

fn arb_outcome(m: &mut Mix, nf: usize, na: usize) -> Outcome {
    match m.u64() % 3 {
        0 => Outcome::Solved {
            value: m.f64(),
            alpha: m.f64s(2),
            loss: m.f64s(nf),
            cut: m.cut(nf, na),
            warm_hit: m.bool(),
            dual_restart: m.bool(),
            lp_iterations: m.u64() % 10_000,
            watchdog_restart: m.bool(),
            chain_reset: m.bool(),
        },
        1 => Outcome::Poisoned { attempts: (m.u64() % 4) as u32 + 1, message: "boom".into() },
        _ => Outcome::Failed { message: "LP blew up".into() },
    }
}

/// One arbitrary frame of the given tag (0..=9), shaped like real traffic.
fn arb_frame(seed: u64, tag: u64) -> Frame {
    let mut m = Mix(seed);
    let nf = 1 + (m.u64() % 6) as usize;
    let na = 1 + (m.u64() % 5) as usize;
    match tag {
        0 => Frame::Join { slot: m.u64() % 64 },
        1 => {
            let problem = arb_problem(&mut m);
            Frame::Hello(Box::new(Hello {
                problem_parts: std::array::from_fn(|_| m.u64()),
                options_parts: std::array::from_fn(|_| m.u64()),
                problem,
                knobs: WireKnobs {
                    max_iterations: m.u64() % 100,
                    prune: m.bool(),
                    gamma: if m.bool() { Some(m.f64()) } else { None },
                    hamming_limit: m.u64() % 1000,
                    exact_threshold: m.u64() % 1000,
                    pool: m.u64() % 3,
                    basis_residency: m.u64() % 4096,
                    watchdog_millis: if m.bool() { Some(m.u64() % 10_000) } else { None },
                    heartbeat_millis: 1 + m.u64() % 1000,
                },
            }))
        }
        2 => Frame::HelloAck,
        3 => Frame::HelloReject { component: "pool_policy".into() },
        4 => Frame::Assign {
            epoch: m.u64(),
            iteration: m.u64() % 100,
            scenario: m.u64() % 64,
            col: m.bits(nf),
            chain: (0..m.u64() % 4).map(|_| m.bits(nf)).collect(),
        },
        5 => {
            let outcome = arb_outcome(&mut m, nf, na);
            Frame::Result {
                epoch: m.u64(),
                iteration: m.u64() % 100,
                scenario: m.u64() % 64,
                outcome,
            }
        }
        6 => Frame::Retire { scenario: m.u64() % 64 },
        7 => Frame::IterSync {
            iteration: m.u64() % 100,
            cuts: (0..m.u64() % 3).map(|q| (q, m.cut(nf, na))).collect(),
            penalty: m.f64(),
            z: (0..nf).map(|_| m.bits(4)).collect(),
        },
        8 => Frame::Heartbeat { seq: m.u64() },
        _ => Frame::Shutdown,
    }
}

/// Reference FNV-1a-64 (matches the codec's checksum), for re-validating
/// deliberately crafted payloads.
fn fnv64_ref(bs: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bs {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_trip_is_identity(seed in 0u64..u64::MAX, tag in 0u64..10) {
        let frame = arb_frame(seed, tag);
        let blob = encode_frame(&frame);
        let back = decode_frame(&blob).expect("round-trip decode");
        // Hello carries types without PartialEq; byte equality of the
        // re-encoding is the identity check.
        prop_assert_eq!(encode_frame(&back), blob, "re-encode diverged for tag {}", tag);
    }

    #[test]
    fn any_bit_flip_is_rejected(seed in 0u64..u64::MAX, tag in 0u64..10, flip in 0u64..u64::MAX) {
        let frame = arb_frame(seed, tag);
        let mut blob = encode_frame(&frame);
        let bit = (flip % (blob.len() as u64 * 8)) as usize;
        blob[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            decode_frame(&blob).is_err(),
            "bit {} flip in a tag-{} frame decoded", bit, tag
        );
    }

    #[test]
    fn any_truncation_is_rejected(seed in 0u64..u64::MAX, tag in 0u64..10, cut_at in 0u64..u64::MAX) {
        let frame = arb_frame(seed, tag);
        let blob = encode_frame(&frame);
        let keep = (cut_at % blob.len() as u64) as usize;
        prop_assert!(decode_frame(&blob[..keep]).is_err(), "prefix of {} bytes decoded", keep);
    }

    #[test]
    fn trailing_garbage_is_rejected(seed in 0u64..u64::MAX, tag in 0u64..10) {
        let frame = arb_frame(seed, tag);
        let mut blob = encode_frame(&frame);
        blob.push(0);
        prop_assert_eq!(
            decode_frame(&blob).err(),
            Some(CheckpointError::Malformed("trailing bytes after payload"))
        );
    }

    #[test]
    fn duplicated_and_interleaved_streams_parse_independently(
        sa in 0u64..u64::MAX,
        sb in 0u64..u64::MAX,
        ta in 0u64..10,
        tb in 0u64..10,
    ) {
        // Two logical senders' frames interleaved (and the first
        // duplicated) in one byte stream: each frame must parse on its own
        // boundaries, unaffected by what came before.
        let a = encode_frame(&arb_frame(sa, ta));
        let b = encode_frame(&arb_frame(sb, tb));
        let mut stream = Vec::new();
        for part in [&a, &b, &a, &b, &a] {
            stream.extend_from_slice(part);
        }
        let mut off = 0usize;
        let mut images: Vec<&[u8]> = Vec::new();
        while off < stream.len() {
            let plen = u64::from_le_bytes(stream[off + 12..off + 20].try_into().unwrap()) as usize;
            let end = off + FRAME_HEADER_LEN + plen;
            images.push(&stream[off..end]);
            off = end;
        }
        prop_assert_eq!(images.len(), 5);
        for (i, img) in images.iter().enumerate() {
            let expect = if i % 2 == 0 { &a } else { &b };
            let back = decode_frame(img).expect("stream frame decodes");
            prop_assert_eq!(&encode_frame(&back), expect, "frame {} diverged", i);
        }
    }
}

#[test]
fn version_bump_is_refused() {
    // Both directions: a frame from the previous format (whose hello
    // carried one more knob) or a newer one is a typed refusal, never a
    // misparse.
    for v in [FRAME_VERSION - 1, FRAME_VERSION + 1] {
        let mut blob = encode_frame(&arb_frame(11, 4));
        blob[8..12].copy_from_slice(&v.to_le_bytes());
        assert_eq!(
            decode_frame(&blob).err(),
            Some(CheckpointError::VersionMismatch { found: v, expected: FRAME_VERSION })
        );
    }
}

#[test]
fn bad_magic_is_refused() {
    let mut blob = encode_frame(&arb_frame(12, 5));
    blob[0] = b'X';
    assert_eq!(decode_frame(&blob).err(), Some(CheckpointError::BadMagic));
    assert!(decode_frame(b"").is_err());
    assert!(decode_frame(b"FLX").is_err());
}

#[test]
fn hostile_outer_length_does_not_allocate() {
    // A header claiming a 2^60-byte payload must be refused by the
    // MAX_FRAME_LEN guard before any buffer is sized from it.
    let mut blob = encode_frame(&arb_frame(13, 4));
    blob[12..20].copy_from_slice(&(1u64 << 60).to_le_bytes());
    assert_eq!(decode_frame(&blob).err(), Some(CheckpointError::Malformed("frame length exceeds limit")));
    // Just past the limit is refused the same way.
    blob[12..20].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    assert_eq!(decode_frame(&blob).err(), Some(CheckpointError::Malformed("frame length exceeds limit")));
}

#[test]
fn hostile_inner_length_does_not_allocate() {
    // An Assign whose *chain count* field claims 2^60 entries, with the
    // outer header and checksum recomputed to be valid — only the
    // remaining-bytes validation inside the payload decoder can object.
    let frame = Frame::Assign {
        epoch: 1,
        iteration: 2,
        scenario: 3,
        col: vec![true, false, true],
        chain: Vec::new(),
    };
    let blob = encode_frame(&frame);
    // Payload layout: tag, epoch, iteration, scenario (4 u64s), then the
    // col bits vector (u64 count + 1 bit-packed byte for 3 bools), then
    // the chain count u64.
    let mut payload = blob[FRAME_HEADER_LEN..].to_vec();
    let chain_count_off = 4 * 8 + 8 + 1;
    assert_eq!(payload.len(), chain_count_off + 8, "layout drifted; fix the offset");
    payload[chain_count_off..chain_count_off + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
    let mut hostile = blob[..12].to_vec();
    hostile.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    hostile.extend_from_slice(&fnv64_ref(&payload).to_le_bytes());
    hostile.extend_from_slice(&payload);
    assert!(decode_frame(&hostile).is_err(), "hostile inner length accepted");
}
