//! Wire frames for the coordinator/worker protocol.
//!
//! Every message crossing the process boundary is one **frame**, reusing
//! the checkpoint codec's primitives and discipline (see
//! [`crate::checkpoint`]): little-endian, length-prefixed, FNV-1a-64
//! checksummed, version-validated, with every length field checked against
//! the remaining payload before allocation. A corrupted, truncated, or
//! hostile frame yields a typed [`CheckpointError`] — never a panic or an
//! OOM (property-tested in `tests/dist_frames.rs`, mirroring the
//! checkpoint corruption matrix).
//!
//! ```text
//! magic   8 B   "FLXFRME\0"
//! version u32
//! len     u64   payload length in bytes (≤ MAX_FRAME_LEN)
//! check   u64   FNV-1a-64 over the payload
//! payload len B tag u64 + body
//! ```

use crate::checkpoint::{
    fnv64, CheckpointError, Dec, Enc, OPTIONS_COMPONENTS, PROBLEM_COMPONENTS,
};
use crate::subproblem::Cut;
use flexile_scenario::{FailureUnit, Scenario, ScenarioSet};
use flexile_topo::{LinkId, NodeId, Topology, TunnelClass, TunnelSet};
use flexile_topo::graph::Path;
use flexile_traffic::{ClassConfig, Instance};
use std::io::{Read, Write};

/// Current frame-format version. Handshakes and every subsequent frame are
/// rejected across versions (a coordinator never talks to a worker built
/// from a different wire format). Version 2 dropped the batch-width
/// handshake knob.
pub const FRAME_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"FLXFRME\0";

/// Hard upper bound on a frame payload (256 MiB). A length prefix above
/// this is rejected before any allocation, so a corrupted or hostile
/// header cannot OOM the receiver.
pub const MAX_FRAME_LEN: u64 = 1 << 28;

/// Frame header size in bytes (magic + version + len + checksum).
pub const FRAME_HEADER_LEN: usize = 28;

/// The problem + knob payload of a [`Frame::Hello`]: everything a worker
/// needs to rebuild the coordinator's subproblem context bit-for-bit.
#[derive(Debug, Clone)]
pub struct Hello {
    /// Coordinator's component-resolved problem fingerprint; the worker
    /// recomputes its own from the decoded problem and refuses on the
    /// first diverging component (see [`crate::checkpoint::check_parts`]).
    pub problem_parts: [u64; PROBLEM_COMPONENTS.len()],
    /// Coordinator's component-resolved options fingerprint, recomputed
    /// worker-side from the shipped knobs.
    pub options_parts: [u64; OPTIONS_COMPONENTS.len()],
    /// The full problem (instance + scenario set + optional γ bounds).
    pub problem: WireProblem,
    /// Raw option knobs the worker rebuilds its `FlexileOptions` from.
    pub knobs: WireKnobs,
}

/// The full problem definition shipped to a worker at handshake.
#[derive(Debug, Clone)]
pub struct WireProblem {
    /// The TE instance (topology, pairs, classes, tunnels, demands).
    pub inst: Instance,
    /// The enumerated failure scenarios.
    pub set: ScenarioSet,
    /// γ-variant per-scenario loss bounds, shipped precomputed so workers
    /// never re-derive them; `None` for the plain form.
    pub loss_ub: Option<Vec<Vec<f64>>>,
}

/// The raw trajectory-relevant option knobs, in the units they are
/// fingerprinted in. Shipped raw (not as opaque hashes) so the worker can
/// *recompute* the options fingerprint instead of trusting the header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireKnobs {
    /// `FlexileOptions::max_iterations`.
    pub max_iterations: u64,
    /// `FlexileOptions::prune`.
    pub prune: bool,
    /// `FlexileOptions::gamma`.
    pub gamma: Option<f64>,
    /// `MasterOptions::hamming_limit`.
    pub hamming_limit: u64,
    /// `MasterOptions::exact_threshold`.
    pub exact_threshold: u64,
    /// `FlexileOptions::pool` as its fingerprint tag (0 = per-scenario,
    /// 2 = cold).
    pub pool: u64,
    /// `FlexileOptions::basis_residency`.
    pub basis_residency: u64,
    /// Subproblem watchdog deadline in milliseconds (`None` preserves
    /// bit-reproducibility, exactly as in-process).
    pub watchdog_millis: Option<u64>,
    /// Worker heartbeat interval in milliseconds.
    pub heartbeat_millis: u64,
}

/// One scenario solve's outcome, reported by a worker. Mirrors the three
/// ways [`crate::pool::solve_contained`] can end.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The solve succeeded.
    Solved {
        /// Optimal `Σ_k w_k α_k` for the scenario.
        value: f64,
        /// Per-class `α_k`.
        alpha: Vec<f64>,
        /// Per-flow losses.
        loss: Vec<f64>,
        /// The Benders cut.
        cut: Cut,
        /// `SolveStats::warm_hit`.
        warm_hit: bool,
        /// `SolveStats::dual_restart`.
        dual_restart: bool,
        /// `SolveStats::iterations`.
        lp_iterations: u64,
        /// `SolveStats::watchdog_restart`.
        watchdog_restart: bool,
        /// The worker's solve chain for this scenario restarted at this
        /// column (cold build or watchdog restart): the coordinator resets
        /// its chain mirror to `[col]` instead of appending.
        chain_reset: bool,
    },
    /// The solve kept panicking and the scenario is poisoned for this
    /// iteration (see [`crate::PoolError::ScenarioPoisoned`]).
    Poisoned {
        /// Attempts made (initial + retries).
        attempts: u32,
        /// Final panic payload, stringified.
        message: String,
    },
    /// The LP failed terminally; the error is carried as text.
    Failed {
        /// The solver error, stringified.
        message: String,
    },
}

/// A protocol message. All integers are u64 on the wire; scenario and
/// iteration indices are widened at encode and narrowed at apply.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Worker → coordinator: first frame after connecting, claiming a
    /// worker slot.
    Join {
        /// The worker's slot index (from `FLEXILE_DIST_SLOT`).
        slot: u64,
    },
    /// Coordinator → worker: the problem, knobs, and declared fingerprints.
    Hello(Box<Hello>),
    /// Worker → coordinator: fingerprints recomputed and matched.
    HelloAck,
    /// Worker → coordinator: a recomputed fingerprint component diverged;
    /// the connection is abandoned.
    HelloReject {
        /// Name of the first diverging component (see
        /// [`PROBLEM_COMPONENTS`] / [`OPTIONS_COMPONENTS`]).
        component: String,
    },
    /// Coordinator → worker: solve one scenario. Carries the coordinator's
    /// authoritative solve-column chain for the scenario; the worker
    /// reconciles its local slot against it (replaying through a fresh
    /// template on divergence) before solving, which is what makes any
    /// assignment — including one reassigned after a death — bit-identical
    /// to the in-process pool.
    Assign {
        /// Assignment epoch; results stamped with an older epoch are stale
        /// and rejected (at-most-once application).
        epoch: u64,
        /// Decomposition iteration (1-based).
        iteration: u64,
        /// Scenario index.
        scenario: u64,
        /// Criticality column to solve.
        col: Vec<bool>,
        /// Solve-column chain preceding this solve (empty = cold).
        chain: Vec<Vec<bool>>,
    },
    /// Worker → coordinator: the outcome of an [`Frame::Assign`].
    Result {
        /// Epoch copied from the assignment.
        epoch: u64,
        /// Iteration copied from the assignment.
        iteration: u64,
        /// Scenario copied from the assignment.
        scenario: u64,
        /// The solve's outcome.
        outcome: Outcome,
    },
    /// Coordinator → worker: drop the scenario's template and chain
    /// (perfect-scenario retirement or LRU eviction).
    Retire {
        /// Scenario index.
        scenario: u64,
    },
    /// Coordinator → worker: iteration boundary broadcast — the cut-pool
    /// delta and the incumbent, so workers track the master's view.
    IterSync {
        /// Iteration that just completed.
        iteration: u64,
        /// Cuts added this iteration, as `(scenario, cut)`.
        cuts: Vec<(u64, Cut)>,
        /// Incumbent penalty after the iteration.
        penalty: f64,
        /// Criticality proposal `z[f][q]` for the next iteration.
        z: Vec<Vec<bool>>,
    },
    /// Worker → coordinator: liveness beacon.
    Heartbeat {
        /// Monotone per-worker sequence number.
        seq: u64,
    },
    /// Coordinator → worker: exit cleanly.
    Shutdown,
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

fn enc_u64s(e: &mut Enc, vs: &[u64]) {
    e.u64(vs.len() as u64);
    for &v in vs {
        e.u64(v);
    }
}

fn enc_path(e: &mut Enc, p: &Path) {
    enc_u64s(e, &p.nodes.iter().map(|n| n.0 as u64).collect::<Vec<_>>());
    enc_u64s(e, &p.links.iter().map(|l| l.0 as u64).collect::<Vec<_>>());
}

fn enc_tunnel_set(e: &mut Enc, ts: &TunnelSet) {
    e.u64(ts.pairs.len() as u64);
    for &(a, b) in &ts.pairs {
        e.u64(a.0 as u64);
        e.u64(b.0 as u64);
    }
    e.u64(ts.tunnels.len() as u64);
    for pt in &ts.tunnels {
        e.u64(pt.len() as u64);
        for t in pt {
            enc_path(e, t);
        }
    }
}

fn tunnel_class_tag(c: TunnelClass) -> u64 {
    match c {
        TunnelClass::SingleClass => 0,
        TunnelClass::HighPriority => 1,
        TunnelClass::LowPriority => 2,
    }
}

fn enc_problem(e: &mut Enc, p: &WireProblem) {
    let topo = &p.inst.topo;
    e.str(&topo.name);
    e.u64(topo.num_nodes() as u64);
    e.u64(topo.num_links() as u64);
    for (_, link) in topo.links() {
        e.u64(link.a.0 as u64);
        e.u64(link.b.0 as u64);
        e.f64(link.capacity);
    }
    e.u64(p.inst.pairs.len() as u64);
    for &(a, b) in &p.inst.pairs {
        e.u64(a.0 as u64);
        e.u64(b.0 as u64);
    }
    e.u64(p.inst.classes.len() as u64);
    for c in &p.inst.classes {
        e.str(&c.name);
        e.f64(c.beta);
        e.f64(c.weight);
        e.u64(tunnel_class_tag(c.tunnel_class));
    }
    e.u64(p.inst.tunnels.len() as u64);
    for ts in &p.inst.tunnels {
        enc_tunnel_set(e, ts);
    }
    e.u64(p.inst.demands.len() as u64);
    for row in &p.inst.demands {
        e.f64s(row);
    }
    e.u64(p.set.units.len() as u64);
    for u in &p.set.units {
        e.u64(u.affects.len() as u64);
        for &(l, share) in &u.affects {
            e.u64(l.0 as u64);
            e.f64(share);
        }
        e.f64(u.prob);
    }
    e.u64(p.set.scenarios.len() as u64);
    for s in &p.set.scenarios {
        enc_u64s(e, &s.failed_units.iter().map(|&u| u as u64).collect::<Vec<_>>());
        e.f64(s.prob);
        e.f64s(&s.cap_factor);
        e.f64(s.demand_factor);
    }
    e.f64(p.set.residual);
    e.u64(p.set.num_links as u64);
    e.opt(&p.loss_ub, |e, rows| {
        e.u64(rows.len() as u64);
        for row in rows {
            e.f64s(row);
        }
    });
}

fn enc_knobs(e: &mut Enc, k: &WireKnobs) {
    e.u64(k.max_iterations);
    e.bool(k.prune);
    e.opt(&k.gamma, |e, &g| e.f64(g));
    e.u64(k.hamming_limit);
    e.u64(k.exact_threshold);
    e.u64(k.pool);
    e.u64(k.basis_residency);
    e.opt(&k.watchdog_millis, |e, &w| e.u64(w));
    e.u64(k.heartbeat_millis);
}

fn enc_bits_list(e: &mut Enc, rows: &[Vec<bool>]) {
    e.u64(rows.len() as u64);
    for r in rows {
        e.bits(r);
    }
}

/// Serialize a frame to its full wire image (header + payload).
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut e = Enc::new();
    match f {
        Frame::Join { slot } => {
            e.u64(0);
            e.u64(*slot);
        }
        Frame::Hello(h) => {
            e.u64(1);
            for &p in &h.problem_parts {
                e.u64(p);
            }
            for &p in &h.options_parts {
                e.u64(p);
            }
            enc_problem(&mut e, &h.problem);
            enc_knobs(&mut e, &h.knobs);
        }
        Frame::HelloAck => e.u64(2),
        Frame::HelloReject { component } => {
            e.u64(3);
            e.str(component);
        }
        Frame::Assign { epoch, iteration, scenario, col, chain } => {
            e.u64(4);
            e.u64(*epoch);
            e.u64(*iteration);
            e.u64(*scenario);
            e.bits(col);
            enc_bits_list(&mut e, chain);
        }
        Frame::Result { epoch, iteration, scenario, outcome } => {
            e.u64(5);
            e.u64(*epoch);
            e.u64(*iteration);
            e.u64(*scenario);
            match outcome {
                Outcome::Solved {
                    value,
                    alpha,
                    loss,
                    cut,
                    warm_hit,
                    dual_restart,
                    lp_iterations,
                    watchdog_restart,
                    chain_reset,
                } => {
                    e.u64(0);
                    e.f64(*value);
                    e.f64s(alpha);
                    e.f64s(loss);
                    e.cut(cut);
                    e.bool(*warm_hit);
                    e.bool(*dual_restart);
                    e.u64(*lp_iterations);
                    e.bool(*watchdog_restart);
                    e.bool(*chain_reset);
                }
                Outcome::Poisoned { attempts, message } => {
                    e.u64(1);
                    e.u64(*attempts as u64);
                    e.str(message);
                }
                Outcome::Failed { message } => {
                    e.u64(2);
                    e.str(message);
                }
            }
        }
        Frame::Retire { scenario } => {
            e.u64(6);
            e.u64(*scenario);
        }
        Frame::IterSync { iteration, cuts, penalty, z } => {
            e.u64(7);
            e.u64(*iteration);
            e.u64(cuts.len() as u64);
            for (q, c) in cuts {
                e.u64(*q);
                e.cut(c);
            }
            e.f64(*penalty);
            enc_bits_list(&mut e, z);
        }
        Frame::Heartbeat { seq } => {
            e.u64(8);
            e.u64(*seq);
        }
        Frame::Shutdown => e.u64(9),
    }
    let payload = e.buf;
    let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

fn dec_u64s(d: &mut Dec<'_>) -> Result<Vec<u64>, CheckpointError> {
    let n = d.len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.u64()?);
    }
    Ok(out)
}

fn dec_u32(d: &mut Dec<'_>, what: &'static str) -> Result<u32, CheckpointError> {
    u32::try_from(d.u64()?).map_err(|_| CheckpointError::Malformed(what))
}

fn dec_path(d: &mut Dec<'_>) -> Result<Path, CheckpointError> {
    let nodes = dec_u64s(d)?
        .into_iter()
        .map(|v| u32::try_from(v).map(NodeId).map_err(|_| CheckpointError::Malformed("node id")))
        .collect::<Result<Vec<_>, _>>()?;
    let links = dec_u64s(d)?
        .into_iter()
        .map(|v| u32::try_from(v).map(LinkId).map_err(|_| CheckpointError::Malformed("link id")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Path { nodes, links })
}

fn dec_pairs(d: &mut Dec<'_>) -> Result<Vec<(NodeId, NodeId)>, CheckpointError> {
    let n = d.len(16)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((NodeId(dec_u32(d, "pair node")?), NodeId(dec_u32(d, "pair node")?)));
    }
    Ok(pairs)
}

fn dec_tunnel_set(d: &mut Dec<'_>) -> Result<TunnelSet, CheckpointError> {
    let pairs = dec_pairs(d)?;
    let np = d.len(1)?;
    if np != pairs.len() {
        return Err(CheckpointError::Malformed("tunnel set pair count"));
    }
    let mut tunnels = Vec::with_capacity(np);
    for _ in 0..np {
        let nt = d.len(1)?;
        let mut pt = Vec::with_capacity(nt);
        for _ in 0..nt {
            pt.push(dec_path(d)?);
        }
        tunnels.push(pt);
    }
    Ok(TunnelSet { pairs, tunnels })
}

fn dec_problem(d: &mut Dec<'_>) -> Result<WireProblem, CheckpointError> {
    let name = d.str()?;
    let num_nodes = d.len(0)?;
    let nl = d.len(24)?;
    let mut links = Vec::with_capacity(nl);
    for _ in 0..nl {
        links.push((dec_u32(d, "link endpoint")?, dec_u32(d, "link endpoint")?, d.f64()?));
    }
    let topo = Topology::new(&name, num_nodes, &links);
    let pairs = dec_pairs(d)?;
    let nc = d.len(1)?;
    let mut classes = Vec::with_capacity(nc);
    for _ in 0..nc {
        let cname = d.str()?;
        let beta = d.f64()?;
        let weight = d.f64()?;
        let tunnel_class = match d.u64()? {
            0 => TunnelClass::SingleClass,
            1 => TunnelClass::HighPriority,
            2 => TunnelClass::LowPriority,
            _ => return Err(CheckpointError::Malformed("tunnel class tag")),
        };
        classes.push(ClassConfig { name: cname, beta, weight, tunnel_class });
    }
    let nts = d.len(1)?;
    if nts != nc {
        return Err(CheckpointError::Malformed("tunnel set count"));
    }
    let mut tunnels = Vec::with_capacity(nts);
    for _ in 0..nts {
        tunnels.push(dec_tunnel_set(d)?);
    }
    let nd = d.len(1)?;
    if nd != nc {
        return Err(CheckpointError::Malformed("demand row count"));
    }
    let mut demands = Vec::with_capacity(nd);
    for _ in 0..nd {
        let row = d.f64s()?;
        if row.len() != pairs.len() {
            return Err(CheckpointError::Malformed("demand row length"));
        }
        demands.push(row);
    }
    let inst = Instance { topo, pairs, classes, tunnels, demands };

    let nu = d.len(1)?;
    let mut units = Vec::with_capacity(nu);
    for _ in 0..nu {
        let na = d.len(16)?;
        let mut affects = Vec::with_capacity(na);
        for _ in 0..na {
            affects.push((LinkId(dec_u32(d, "unit link")?), d.f64()?));
        }
        units.push(FailureUnit { affects, prob: d.f64()? });
    }
    let ns = d.len(1)?;
    let mut scenarios = Vec::with_capacity(ns);
    for _ in 0..ns {
        let failed_units = dec_u64s(d)?
            .into_iter()
            .map(|v| u32::try_from(v).map_err(|_| CheckpointError::Malformed("failed unit")))
            .collect::<Result<Vec<_>, _>>()?;
        let prob = d.f64()?;
        let cap_factor = d.f64s()?;
        if cap_factor.len() != inst.topo.num_links() {
            return Err(CheckpointError::Malformed("cap_factor length"));
        }
        let demand_factor = d.f64()?;
        scenarios.push(Scenario { failed_units, prob, cap_factor, demand_factor });
    }
    let residual = d.f64()?;
    let num_links = d.len(0)?;
    let set = ScenarioSet { units, scenarios, residual, num_links };

    let nq = set.scenarios.len();
    let nf = inst.num_flows();
    let loss_ub = d.opt(|d| {
        let n = d.len(1)?;
        if n != nq {
            return Err(CheckpointError::Malformed("loss_ub row count"));
        }
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let row = d.f64s()?;
            if row.len() != nf {
                return Err(CheckpointError::Malformed("loss_ub row length"));
            }
            rows.push(row);
        }
        Ok(rows)
    })?;
    Ok(WireProblem { inst, set, loss_ub })
}

fn dec_knobs(d: &mut Dec<'_>) -> Result<WireKnobs, CheckpointError> {
    Ok(WireKnobs {
        max_iterations: d.u64()?,
        prune: d.bool()?,
        gamma: d.opt(|d| d.f64())?,
        hamming_limit: d.u64()?,
        exact_threshold: d.u64()?,
        pool: d.u64()?,
        basis_residency: d.u64()?,
        watchdog_millis: d.opt(|d| d.u64())?,
        heartbeat_millis: d.u64()?,
    })
}

fn dec_bits_list(d: &mut Dec<'_>) -> Result<Vec<Vec<bool>>, CheckpointError> {
    let n = d.len(1)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(d.bits()?);
    }
    Ok(rows)
}

fn decode_payload(payload: &[u8]) -> Result<Frame, CheckpointError> {
    let mut d = Dec { buf: payload, pos: 0 };
    let frame = match d.u64()? {
        0 => Frame::Join { slot: d.u64()? },
        1 => {
            let mut problem_parts = [0u64; PROBLEM_COMPONENTS.len()];
            for p in &mut problem_parts {
                *p = d.u64()?;
            }
            let mut options_parts = [0u64; OPTIONS_COMPONENTS.len()];
            for p in &mut options_parts {
                *p = d.u64()?;
            }
            let problem = dec_problem(&mut d)?;
            let knobs = dec_knobs(&mut d)?;
            Frame::Hello(Box::new(Hello { problem_parts, options_parts, problem, knobs }))
        }
        2 => Frame::HelloAck,
        3 => Frame::HelloReject { component: d.str()? },
        4 => Frame::Assign {
            epoch: d.u64()?,
            iteration: d.u64()?,
            scenario: d.u64()?,
            col: d.bits()?,
            chain: dec_bits_list(&mut d)?,
        },
        5 => {
            let epoch = d.u64()?;
            let iteration = d.u64()?;
            let scenario = d.u64()?;
            let outcome = match d.u64()? {
                0 => Outcome::Solved {
                    value: d.f64()?,
                    alpha: d.f64s()?,
                    loss: d.f64s()?,
                    cut: d.cut()?,
                    warm_hit: d.bool()?,
                    dual_restart: d.bool()?,
                    lp_iterations: d.u64()?,
                    watchdog_restart: d.bool()?,
                    chain_reset: d.bool()?,
                },
                1 => Outcome::Poisoned { attempts: dec_u32(&mut d, "attempts")?, message: d.str()? },
                2 => Outcome::Failed { message: d.str()? },
                _ => return Err(CheckpointError::Malformed("outcome tag")),
            };
            Frame::Result { epoch, iteration, scenario, outcome }
        }
        6 => Frame::Retire { scenario: d.u64()? },
        7 => {
            let iteration = d.u64()?;
            let nc = d.len(1)?;
            let mut cuts = Vec::with_capacity(nc);
            for _ in 0..nc {
                cuts.push((d.u64()?, d.cut()?));
            }
            Frame::IterSync { iteration, cuts, penalty: d.f64()?, z: dec_bits_list(&mut d)? }
        }
        8 => Frame::Heartbeat { seq: d.u64()? },
        9 => Frame::Shutdown,
        _ => return Err(CheckpointError::Malformed("frame tag")),
    };
    if d.pos != payload.len() {
        return Err(CheckpointError::Malformed("unconsumed payload bytes"));
    }
    Ok(frame)
}

/// Parse and validate a full frame image (header + payload), the inverse
/// of [`encode_frame`]. Every header field is validated before the payload
/// is touched, and the payload checksum before it is decoded.
pub fn decode_frame(data: &[u8]) -> Result<Frame, CheckpointError> {
    if data.len() < 8 {
        return Err(CheckpointError::Truncated { needed: 8, have: data.len() });
    }
    if &data[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if data.len() < FRAME_HEADER_LEN {
        return Err(CheckpointError::Truncated { needed: FRAME_HEADER_LEN, have: data.len() });
    }
    let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    if version != FRAME_VERSION {
        return Err(CheckpointError::VersionMismatch { found: version, expected: FRAME_VERSION });
    }
    let plen = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes"));
    if plen > MAX_FRAME_LEN {
        return Err(CheckpointError::Malformed("frame length exceeds limit"));
    }
    let plen = plen as usize;
    let check = u64::from_le_bytes(data[20..28].try_into().expect("8 bytes"));
    let have = data.len() - FRAME_HEADER_LEN;
    if have < plen {
        return Err(CheckpointError::Truncated { needed: FRAME_HEADER_LEN + plen, have: data.len() });
    }
    if have > plen {
        return Err(CheckpointError::Malformed("trailing bytes after payload"));
    }
    let payload = &data[FRAME_HEADER_LEN..];
    if fnv64(payload) != check {
        return Err(CheckpointError::ChecksumMismatch);
    }
    decode_payload(payload)
}

// ---------------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------------

/// Why a frame could not be read from a stream: transport failure, or a
/// frame that arrived but failed validation (corruption — the connection
/// can no longer be trusted to be in sync).
#[derive(Debug)]
pub(crate) enum FrameReadError {
    /// The underlying read failed (peer gone, timeout, reset).
    Io(std::io::Error),
    /// The frame failed header/checksum/payload validation.
    Corrupt(CheckpointError),
}

/// Read one frame from a stream. Header fields are validated before the
/// payload is allocated (the `MAX_FRAME_LEN` guard applies here too).
pub(crate) fn read_frame(r: &mut impl Read) -> Result<Frame, FrameReadError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header).map_err(FrameReadError::Io)?;
    if &header[..8] != MAGIC {
        return Err(FrameReadError::Corrupt(CheckpointError::BadMagic));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != FRAME_VERSION {
        return Err(FrameReadError::Corrupt(CheckpointError::VersionMismatch {
            found: version,
            expected: FRAME_VERSION,
        }));
    }
    let plen = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    if plen > MAX_FRAME_LEN {
        return Err(FrameReadError::Corrupt(CheckpointError::Malformed(
            "frame length exceeds limit",
        )));
    }
    let check = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; plen as usize];
    r.read_exact(&mut payload).map_err(FrameReadError::Io)?;
    if fnv64(&payload) != check {
        return Err(FrameReadError::Corrupt(CheckpointError::ChecksumMismatch));
    }
    decode_payload(&payload).map_err(FrameReadError::Corrupt)
}

/// Write one already-encoded frame image to a stream.
pub(crate) fn write_frame_bytes(w: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    w.write_all(bytes)?;
    w.flush()
}

/// Encode and write one frame to a stream.
pub(crate) fn write_frame(w: &mut impl Write, f: &Frame) -> std::io::Result<()> {
    write_frame_bytes(w, &encode_frame(f))
}
