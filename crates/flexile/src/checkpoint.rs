//! Crash-safe checkpointing of the Benders decomposition state.
//!
//! A checkpoint is a **versioned, checksummed, zero-dependency binary
//! snapshot** of everything [`crate::solve_flexile`] needs to continue a
//! run after process death: the proposed criticality `z`, the master's cut
//! pool, per-scenario caches and pruning flags, the best incumbent, the
//! per-iteration statistics, the bound trajectory, and — crucially — each
//! scenario's *solve-column history* (the sequence of criticality columns
//! its pooled template solved since its last cold start).
//!
//! **Warm bases are intentionally not persisted.** A basis snapshot is
//! large, engine-specific, and version-fragile. Instead the decomposition
//! is deterministic given each scenario's RHS chain: scenario `q`'s
//! template state depends only on its own solve sequence (templates are
//! never shared across scenarios — see the private `pool` module), so
//! replaying the checkpointed chain through a fresh template performs
//! bit-for-bit the same computation the uninterrupted run did and
//! reconstructs the exact warm basis. `decompose_resume` does this replay
//! before continuing. The pool's unit tests compare every slot's
//! [`flexile_lp::Basis::fingerprint`] after a snapshot/restore round trip
//! with the uninterrupted run's; the crash tests assert that resumed runs
//! reach bit-identical final designs.
//!
//! The decomposition itself uses no RNG, so there is no random state to
//! persist; determinism is documented and tested in `tests/pool.rs`.
//!
//! ## Wire format (version 2, all little-endian)
//!
//! ```text
//! magic   8 B   "FLXCKPT\0"
//! version u32
//! len     u64   payload length in bytes
//! check   u64   FNV-1a-64 over the payload
//! payload len B
//! ```
//!
//! No trailing bytes are tolerated. Every length field is validated
//! against the remaining payload before allocation, so a corrupted or
//! hostile file yields a typed [`CheckpointError`] — never a panic, an
//! OOM, or silent garbage (property-tested in `tests/checkpoint.rs`).
//!
//! Writes are atomic: the snapshot goes to `<path>.tmp` and is renamed
//! over the target, so a crash *during checkpointing* leaves the previous
//! checkpoint intact.

use crate::decomposition::{FlexileOptions, IterationStat, PoolPolicy};
use crate::pool::BASIS_RESIDENCY;
use crate::subproblem::Cut;
use flexile_scenario::ScenarioSet;
use flexile_traffic::Instance;
use std::fmt;
use std::path::{Path, PathBuf};

/// Current wire-format version. Version 2 added component-resolved
/// fingerprints (`problem_parts` / `options_parts`) so a mismatch names
/// exactly which component diverged instead of reporting a bare mismatch.
/// Version 3 dropped the batch-width options component (4 → 3 parts).
pub const CHECKPOINT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"FLXCKPT\0";

/// File name used inside a checkpoint directory.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("flexile.ckpt")
}

/// Why a checkpoint could not be read (or written).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure, with the offending path and the OS error text.
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not [`CHECKPOINT_VERSION`].
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The file ends before the declared payload (or header) does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The FNV-1a checksum over the payload does not match the header.
    ChecksumMismatch,
    /// Structurally invalid payload (bad tag, inconsistent shape, trailing
    /// bytes). The message says which field.
    Malformed(&'static str),
    /// The checkpoint belongs to a different instance/scenario set than the
    /// one being resumed. `component` names which part of the problem
    /// fingerprint diverged (see [`PROBLEM_COMPONENTS`], plus `"betas"` for
    /// the effective-β check) so the failure is diagnosable from one line.
    ProblemMismatch {
        /// Which problem-fingerprint component differs.
        component: &'static str,
    },
    /// The checkpoint was written under decomposition options that change
    /// the trajectory (iteration/pruning/γ knobs, the master configuration
    /// or the pool policy). `component` names which options-fingerprint
    /// component diverged (see [`OPTIONS_COMPONENTS`]).
    OptionsMismatch {
        /// Which options-fingerprint component differs.
        component: &'static str,
    },
    /// Resume was requested but the options carry no checkpoint directory.
    NoCheckpointConfigured,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::BadMagic => write!(f, "not a Flexile checkpoint (bad magic)"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} is not supported (this build reads \
                 version {expected}); re-run the decomposition from scratch"
            ),
            CheckpointError::Truncated { needed, have } => {
                write!(f, "checkpoint truncated: needed {needed} bytes, have {have}")
            }
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint payload checksum mismatch (file corrupted)")
            }
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::ProblemMismatch { component } => write!(
                f,
                "checkpoint was written for a different instance/scenario set \
                 (mismatched component: {component})"
            ),
            CheckpointError::OptionsMismatch { component } => write!(
                f,
                "checkpoint was written under different decomposition options \
                 (mismatched component: {component})"
            ),
            CheckpointError::NoCheckpointConfigured => {
                write!(f, "resume requested but FlexileOptions.checkpoint_dir is unset")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The best incumbent found so far (penalty, criticality, offline losses,
/// per-class α) — mirrors the tuple the decomposition loop tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct BestIncumbent {
    /// Incumbent penalty `Σ_k w_k α_k`.
    pub penalty: f64,
    /// Criticality assignment `critical[f][q]`.
    pub critical: Vec<Vec<bool>>,
    /// Offline per-flow, per-scenario losses.
    pub loss: Vec<Vec<f64>>,
    /// Per-class achieved PercLoss.
    pub alpha: Vec<f64>,
}

/// A decoded (or to-be-encoded) snapshot of the decomposition at an
/// iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Component-resolved fingerprint of the instance + scenario set (see
    /// [`problem_fingerprint_parts`]); resume refuses a mismatch, naming
    /// the first diverging component.
    pub problem_parts: [u64; PROBLEM_COMPONENTS.len()],
    /// Component-resolved fingerprint of the trajectory-relevant options
    /// (see [`options_fingerprint_parts`]).
    pub options_parts: [u64; OPTIONS_COMPONENTS.len()],
    /// Number of flows.
    pub nf: usize,
    /// Number of scenarios.
    pub nq: usize,
    /// Number of arcs (cut `u` length).
    pub na: usize,
    /// Last *completed* iteration (1-based; the loop continues at `it+1`).
    pub it: usize,
    /// The run finished (converged or hit the iteration cap); resume just
    /// reconstructs the design without solving anything.
    pub done: bool,
    /// Criticality proposal for the next iteration, `z[f][q]`.
    pub z: Vec<Vec<bool>>,
    /// Master cut pool, `cuts[q]`.
    pub cuts: Vec<Vec<Cut>>,
    /// Per-scenario cached losses from the last successful solve.
    pub cached_loss: Vec<Option<Vec<f64>>>,
    /// Per-scenario cached subproblem values.
    pub cached_value: Vec<f64>,
    /// Per-scenario criticality column of the last solve (pruning state).
    pub last_z_col: Vec<Option<Vec<bool>>>,
    /// Perfect-scenario pruning flags.
    pub perfect: Vec<bool>,
    /// Pool LRU stamps (last iteration each template was used).
    pub stamps: Vec<u64>,
    /// Per-scenario solve-column history since the template's last cold
    /// start; replayed on resume to reconstruct warm bases exactly.
    pub chains: Vec<Vec<Vec<bool>>>,
    /// Best incumbent so far.
    pub best: Option<BestIncumbent>,
    /// Per-iteration statistics so far.
    pub iterations: Vec<IterationStat>,
    /// Master lower bound from the most recent master solve.
    pub last_bound: Option<f64>,
    /// Effective per-class β targets.
    pub betas: Vec<f64>,
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn fnv64(bs: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bs);
    h.0
}

/// Names of the problem-fingerprint components, aligned with the entries
/// of [`problem_fingerprint_parts`]. A mismatch is reported with the first
/// diverging component's name.
pub const PROBLEM_COMPONENTS: [&str; 5] =
    ["shape", "classes", "demands", "capacities", "scenarios"];

/// Names of the options-fingerprint components, aligned with the entries
/// of [`options_fingerprint_parts`].
pub const OPTIONS_COMPONENTS: [&str; 3] = ["search", "master", "pool_policy"];

/// Bit-exact component fingerprints of the problem a checkpoint belongs
/// to, in [`PROBLEM_COMPONENTS`] order: structural shape (flow/arc/class
/// counts), classes (β, weight), demands, arc capacities, and every
/// scenario's probability, capacity factors, demand factor, and failed
/// units.
pub fn problem_fingerprint_parts(
    inst: &Instance,
    set: &ScenarioSet,
) -> [u64; PROBLEM_COMPONENTS.len()] {
    let mut shape = Fnv::new();
    shape.u64(inst.num_flows() as u64);
    shape.u64(inst.num_arcs() as u64);
    shape.u64(inst.num_classes() as u64);

    let mut classes = Fnv::new();
    for c in &inst.classes {
        classes.f64(c.beta);
        classes.f64(c.weight);
    }

    let mut demands = Fnv::new();
    for row in &inst.demands {
        demands.u64(row.len() as u64);
        for &d in row {
            demands.f64(d);
        }
    }

    let mut capacities = Fnv::new();
    for a in 0..inst.num_arcs() {
        capacities.f64(inst.arc_capacity(a));
        capacities.u64(inst.arc_link(a) as u64);
    }

    let mut scenarios = Fnv::new();
    scenarios.u64(set.scenarios.len() as u64);
    scenarios.f64(set.residual);
    for s in &set.scenarios {
        scenarios.f64(s.prob);
        scenarios.f64(s.demand_factor);
        for &u in &s.failed_units {
            scenarios.u64(u as u64 + 1);
        }
        scenarios.u64(0); // terminator between scenarios
        for &cf in &s.cap_factor {
            scenarios.f64(cf);
        }
    }
    [shape.0, classes.0, demands.0, capacities.0, scenarios.0]
}

/// Combined problem fingerprint (FNV over the component parts). Kept for
/// call sites that only need a single opaque identity.
pub fn problem_fingerprint(inst: &Instance, set: &ScenarioSet) -> u64 {
    combine_parts(&problem_fingerprint_parts(inst, set))
}

/// Component fingerprints of the options that change the decomposition
/// *trajectory* (anything that would make continuation diverge from the
/// original run), in [`OPTIONS_COMPONENTS`] order: search knobs
/// (iteration cap, pruning, γ), master configuration, and pool policy +
/// residency budget. Thread count is deliberately excluded — output is
/// thread-invariant — as are the checkpointing knobs themselves.
pub fn options_fingerprint_parts(opts: &FlexileOptions) -> [u64; OPTIONS_COMPONENTS.len()] {
    let mut search = Fnv::new();
    search.u64(opts.max_iterations as u64);
    search.u64(opts.prune as u64);
    match opts.gamma {
        Some(g) => {
            search.u64(1);
            search.f64(g);
        }
        None => search.u64(0),
    }

    let mut master = Fnv::new();
    master.u64(opts.master.hamming_limit as u64);
    master.u64(opts.master.exact_threshold as u64);

    let mut pool_policy = Fnv::new();
    pool_policy.u64(match opts.pool {
        PoolPolicy::PerScenario => 0,
        PoolPolicy::Cold => 2,
    });
    pool_policy.u64(BASIS_RESIDENCY as u64);

    [search.0, master.0, pool_policy.0]
}

/// Combined options fingerprint (FNV over the component parts).
pub fn options_fingerprint(opts: &FlexileOptions) -> u64 {
    combine_parts(&options_fingerprint_parts(opts))
}

fn combine_parts(parts: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &p in parts {
        h.u64(p);
    }
    h.0
}

/// Validate that a checkpoint belongs to this problem + options, naming
/// the diverging component on mismatch. Shape (`nf`/`nq`/`na`) counts as
/// the `"shape"` problem component.
pub fn validate_fingerprints(
    ck: &CheckpointState,
    inst: &Instance,
    set: &ScenarioSet,
    opts: &FlexileOptions,
) -> Result<(), CheckpointError> {
    if ck.nf != inst.num_flows() || ck.nq != set.scenarios.len() || ck.na != inst.num_arcs() {
        return Err(CheckpointError::ProblemMismatch { component: "shape" });
    }
    let problem = problem_fingerprint_parts(inst, set);
    for (i, name) in PROBLEM_COMPONENTS.iter().enumerate() {
        if ck.problem_parts[i] != problem[i] {
            return Err(CheckpointError::ProblemMismatch { component: name });
        }
    }
    let options = options_fingerprint_parts(opts);
    for (i, name) in OPTIONS_COMPONENTS.iter().enumerate() {
        if ck.options_parts[i] != options[i] {
            return Err(CheckpointError::OptionsMismatch { component: name });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::with_capacity(4096) }
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn bits(&mut self, bs: &[bool]) {
        self.u64(bs.len() as u64);
        let mut byte = 0u8;
        for (i, &b) in bs.iter().enumerate() {
            if b {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.buf.push(byte);
                byte = 0;
            }
        }
        if !bs.len().is_multiple_of(8) {
            self.buf.push(byte);
        }
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }
    fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            Some(inner) => {
                self.buf.push(1);
                f(self, inner);
            }
            None => self.buf.push(0),
        }
    }
    fn cut(&mut self, c: &Cut) {
        self.f64s(&c.w);
        self.f64s(&c.u);
        self.f64(c.d_const);
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn need(&self, n: usize) -> Result<(), CheckpointError> {
        if self.buf.len() - self.pos < n {
            Err(CheckpointError::Truncated {
                needed: self.pos + n,
                have: self.buf.len(),
            })
        } else {
            Ok(())
        }
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.need(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(b))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool, CheckpointError> {
        self.need(1)?;
        let b = self.buf[self.pos];
        self.pos += 1;
        match b {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("bool tag")),
        }
    }
    /// A length field, validated so that `len * elem_bytes` fits in the
    /// remaining payload (prevents attacker-controlled allocations).
    fn len(&mut self, elem_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(elem_bytes.max(1) as u64).is_none_or(|need| need > remaining) {
            return Err(CheckpointError::Malformed("length field exceeds payload"));
        }
        Ok(n as usize)
    }
    fn bits(&mut self) -> Result<Vec<bool>, CheckpointError> {
        let n = self.u64()? as usize;
        let bytes = n.div_ceil(8);
        self.need(bytes)?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.buf[self.pos + i / 8] >> (i % 8) & 1 == 1);
        }
        // Padding bits must be zero so every payload has one encoding.
        if !n.is_multiple_of(8) && self.buf[self.pos + bytes - 1] >> (n % 8) != 0 {
            return Err(CheckpointError::Malformed("nonzero bit padding"));
        }
        self.pos += bytes;
        Ok(out)
    }
    fn f64s(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }
    fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<Option<T>, CheckpointError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }
    fn cut(&mut self) -> Result<Cut, CheckpointError> {
        Ok(Cut { w: self.f64s()?, u: self.f64s()?, d_const: self.f64()? })
    }
}

// ---------------------------------------------------------------------------
// State <-> bytes
// ---------------------------------------------------------------------------

/// Serialize a state to the full file image (header + payload).
pub fn encode(state: &CheckpointState) -> Vec<u8> {
    let mut e = Enc::new();
    for &p in &state.problem_parts {
        e.u64(p);
    }
    for &p in &state.options_parts {
        e.u64(p);
    }
    e.u64(state.nf as u64);
    e.u64(state.nq as u64);
    e.u64(state.na as u64);
    e.u64(state.it as u64);
    e.bool(state.done);
    for row in &state.z {
        e.bits(row);
    }
    for qcuts in &state.cuts {
        e.u64(qcuts.len() as u64);
        for c in qcuts {
            e.cut(c);
        }
    }
    for l in &state.cached_loss {
        e.opt(l, |e, v| e.f64s(v));
    }
    e.f64s(&state.cached_value);
    for c in &state.last_z_col {
        e.opt(c, |e, v| e.bits(v));
    }
    e.bits(&state.perfect);
    e.u64(state.stamps.len() as u64);
    for &s in &state.stamps {
        e.u64(s);
    }
    for chain in &state.chains {
        e.u64(chain.len() as u64);
        for col in chain {
            e.bits(col);
        }
    }
    e.opt(&state.best, |e, b| {
        e.f64(b.penalty);
        for row in &b.critical {
            e.bits(row);
        }
        for row in &b.loss {
            e.f64s(row);
        }
        e.f64s(&b.alpha);
    });
    e.u64(state.iterations.len() as u64);
    for s in &state.iterations {
        e.u64(s.iteration as u64);
        e.f64(s.penalty);
        e.u64(s.solved as u64);
        e.u64(s.pruned as u64);
        e.u64(s.lp_iterations as u64);
        e.u64(s.warm_hits as u64);
        e.u64(s.dual_restarts as u64);
    }
    e.opt(&state.last_bound, |e, &b| e.f64(b));
    e.f64s(&state.betas);

    let payload = e.buf;
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parse and validate a full file image.
pub fn decode(data: &[u8]) -> Result<CheckpointState, CheckpointError> {
    if data.len() < 8 {
        return Err(CheckpointError::Truncated { needed: 8, have: data.len() });
    }
    if &data[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if data.len() < 28 {
        return Err(CheckpointError::Truncated { needed: 28, have: data.len() });
    }
    let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let plen = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes")) as usize;
    let check = u64::from_le_bytes(data[20..28].try_into().expect("8 bytes"));
    let have = data.len() - 28;
    if have < plen {
        return Err(CheckpointError::Truncated { needed: 28 + plen, have: data.len() });
    }
    if have > plen {
        return Err(CheckpointError::Malformed("trailing bytes after payload"));
    }
    let payload = &data[28..];
    if fnv64(payload) != check {
        return Err(CheckpointError::ChecksumMismatch);
    }

    let mut d = Dec { buf: payload, pos: 0 };
    let mut problem_parts = [0u64; PROBLEM_COMPONENTS.len()];
    for p in &mut problem_parts {
        *p = d.u64()?;
    }
    let mut options_parts = [0u64; OPTIONS_COMPONENTS.len()];
    for p in &mut options_parts {
        *p = d.u64()?;
    }
    let nf = d.len(0)?;
    let nq = d.len(0)?;
    let na = d.len(0)?;
    // Shape sanity: every per-flow/per-scenario structure below is bounded
    // by these, and each row costs at least one length byte, so cap them
    // against the payload size before trusting them in loops.
    if nf > payload.len() || nq > payload.len() || na > payload.len() {
        return Err(CheckpointError::Malformed("dimensions exceed payload"));
    }
    let it = d.u64()? as usize;
    let done = d.bool()?;
    let expect_bits = |v: Vec<bool>, n: usize, what: &'static str| {
        if v.len() == n {
            Ok(v)
        } else {
            Err(CheckpointError::Malformed(what))
        }
    };
    let expect_f64s = |v: Vec<f64>, n: usize, what: &'static str| {
        if v.len() == n {
            Ok(v)
        } else {
            Err(CheckpointError::Malformed(what))
        }
    };
    let mut z = Vec::with_capacity(nf);
    for _ in 0..nf {
        z.push(expect_bits(d.bits()?, nq, "z row length")?);
    }
    let mut cuts = Vec::with_capacity(nq);
    for _ in 0..nq {
        let ncuts = d.len(1)?;
        let mut qcuts = Vec::with_capacity(ncuts);
        for _ in 0..ncuts {
            let c = d.cut()?;
            if c.w.len() != nf || c.u.len() != na {
                return Err(CheckpointError::Malformed("cut dimensions"));
            }
            qcuts.push(c);
        }
        cuts.push(qcuts);
    }
    let mut cached_loss = Vec::with_capacity(nq);
    for _ in 0..nq {
        let l = d.opt(|d| d.f64s())?;
        cached_loss.push(match l {
            Some(v) => Some(expect_f64s(v, nf, "cached_loss row length")?),
            None => None,
        });
    }
    let cached_value = expect_f64s(d.f64s()?, nq, "cached_value length")?;
    let mut last_z_col = Vec::with_capacity(nq);
    for _ in 0..nq {
        let c = d.opt(|d| d.bits())?;
        last_z_col.push(match c {
            Some(v) => Some(expect_bits(v, nf, "last_z_col length")?),
            None => None,
        });
    }
    let perfect = expect_bits(d.bits()?, nq, "perfect length")?;
    let nstamps = d.len(8)?;
    if nstamps != nq {
        return Err(CheckpointError::Malformed("stamps length"));
    }
    let mut stamps = Vec::with_capacity(nq);
    for _ in 0..nq {
        stamps.push(d.u64()?);
    }
    let mut chains = Vec::with_capacity(nq);
    for _ in 0..nq {
        let n = d.len(1)?;
        let mut chain = Vec::with_capacity(n);
        for _ in 0..n {
            chain.push(expect_bits(d.bits()?, nf, "chain column length")?);
        }
        chains.push(chain);
    }
    let best = d.opt(|d| {
        let penalty = d.f64()?;
        let mut critical = Vec::with_capacity(nf);
        for _ in 0..nf {
            critical.push(expect_bits(d.bits()?, nq, "best.critical row length")?);
        }
        let mut loss = Vec::with_capacity(nf);
        for _ in 0..nf {
            loss.push(expect_f64s(d.f64s()?, nq, "best.loss row length")?);
        }
        let alpha = d.f64s()?;
        Ok(BestIncumbent { penalty, critical, loss, alpha })
    })?;
    let niters = d.len(1)?;
    let mut iterations = Vec::with_capacity(niters);
    for _ in 0..niters {
        iterations.push(IterationStat {
            iteration: d.u64()? as usize,
            penalty: d.f64()?,
            solved: d.u64()? as usize,
            pruned: d.u64()? as usize,
            lp_iterations: d.u64()? as usize,
            warm_hits: d.u64()? as usize,
            dual_restarts: d.u64()? as usize,
        });
    }
    let last_bound = d.opt(|d| d.f64())?;
    let betas = d.f64s()?;
    if d.pos != payload.len() {
        return Err(CheckpointError::Malformed("unconsumed payload bytes"));
    }
    Ok(CheckpointState {
        problem_parts,
        options_parts,
        nf,
        nq,
        na,
        it,
        done,
        z,
        cuts,
        cached_loss,
        cached_value,
        last_z_col,
        perfect,
        stamps,
        chains,
        best,
        iterations,
        last_bound,
        betas,
    })
}

// ---------------------------------------------------------------------------
// Atomic file I/O
// ---------------------------------------------------------------------------

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(format!("{}: {e}", path.display()))
}

/// Atomically write a checkpoint: encode, write to `<path>.tmp`, fsync,
/// rename over `path`. Returns the file size in bytes.
pub fn write_checkpoint(path: &Path, state: &CheckpointState) -> Result<u64, CheckpointError> {
    let _sp = flexile_obs::span("flexile.checkpoint_write", "flexile")
        .field("iteration", state.it)
        .field("done", state.done as u64);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        }
    }
    let bytes = encode(state);
    let tmp = path.with_extension("ckpt.tmp");
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(&bytes).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    flexile_obs::add("flexile.checkpoint_write", 1);
    flexile_obs::observe("flexile.checkpoint_bytes", bytes.len() as f64);
    Ok(bytes.len() as u64)
}

/// Read and validate a checkpoint file.
pub fn read_checkpoint(path: &Path) -> Result<CheckpointState, CheckpointError> {
    let _sp = flexile_obs::span("flexile.checkpoint_restore", "flexile");
    let data = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let state = decode(&data)?;
    flexile_obs::add("flexile.checkpoint_restore", 1);
    Ok(state)
}
