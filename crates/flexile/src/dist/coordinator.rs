//! The coordinator side of the distributed pool: an [`IterationSolver`]
//! whose workers are OS processes.
//!
//! The coordinator shards each iteration's scenario set across locally
//! spawned worker processes and drives the existing Benders loop
//! ([`crate::decomposition::run_decomposition`]) **bit-identically** to the
//! in-process pool at any worker count. The key invariant is the
//! coordinator's *chain mirror*: for every scenario it tracks the exact
//! solve-column chain the owning worker's template was built from, updated
//! from each result's `chain_reset` flag by the same rules
//! [`solve_contained`] applies locally. Every [`Frame::Assign`] ships the
//! authoritative chain, and the worker replays it through a fresh template
//! whenever its local slot diverges — so a scenario solved by worker 3
//! after worker 0 died mid-iteration produces the same bits as if nothing
//! had happened.
//!
//! ## Failure semantics (summary; see DESIGN.md §5.6)
//!
//! * **Death** (EOF, kill, crash): the worker's pending scenarios are
//!   reassigned under a fresh epoch; the worker is respawned (without its
//!   chaos environment) up to `max_restarts` times, then quarantined.
//! * **Hang**: workers heartbeat on their own clock; a worker silent past
//!   `deadline` is killed and handled as a death
//!   (`flexile.dist_heartbeat_stall`).
//! * **Corruption**: a frame failing checksum/validation condemns the
//!   connection (`flexile.dist_frame_corrupt`) — the stream can no longer
//!   be trusted to be in sync — and is handled as a death.
//! * **Staleness**: results are applied at most once, gated on the
//!   scenario's assignment epoch *and* the connection id that produced
//!   them (`flexile.dist_stale_result`).
//! * **Degradation**: with every slot quarantined (or zero workers
//!   configured) the coordinator re-warms templates from its chain mirror
//!   and continues in-process (`flexile.dist_fallback`) — same bits,
//!   no processes.

use super::frame::{
    encode_frame, read_frame, write_frame, write_frame_bytes, Frame, FrameReadError, Hello,
    Outcome, WireKnobs, WireProblem,
};
use super::worker::{CHAOS_ENV, CONNECT_ENV, SLOT_ENV};
use super::DistError;
use crate::checkpoint::{self, CheckpointError};
use crate::decomposition::{
    self, design_from_state, run_decomposition, BendersState, FlexileOptions, PoolPolicy,
};
use crate::pool::{
    lock_recover, solve_contained, IterationSolver, PoolCtx, PoolError, PoolSnapshot, ScenResult,
    Slot, MAX_PANIC_RETRIES,
};
use crate::subproblem::{Cut, SolveStats, SubproblemSolution};
use crate::FlexileDesign;
use flexile_lp::SolveScratch;
use flexile_scenario::ScenarioSet;
use flexile_traffic::Instance;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How to launch a worker process.
#[derive(Debug, Clone)]
pub enum WorkerSpec {
    /// Re-exec the current executable with the given arguments. Tests use
    /// this with `--exact <worker test name>`; `repro` with
    /// `["dist_worker"]`.
    CurrentExe {
        /// Arguments passed to the re-executed binary.
        args: Vec<String>,
    },
    /// Run an arbitrary program.
    Command {
        /// Program path.
        program: String,
        /// Arguments.
        args: Vec<String>,
    },
}

/// Options for the distributed coordinator.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Worker processes to spawn. `0` runs the degraded in-process path
    /// from the start (counted as `flexile.dist_fallback`).
    pub workers: usize,
    /// How to launch each worker.
    pub worker: WorkerSpec,
    /// Worker heartbeat interval.
    pub heartbeat: Duration,
    /// Silence deadline: a worker that produces no frame for this long is
    /// presumed hung, killed, and its scenarios reassigned. Also bounds
    /// the spawn-to-handshake window.
    pub deadline: Duration,
    /// Deaths tolerated per slot before the slot is quarantined (mirrors
    /// [`MAX_PANIC_RETRIES`]: the first spawn plus this many respawns).
    pub max_restarts: u32,
    /// Chaos injection: `(slot, spec)` pairs where `spec` is a
    /// [`crate::killpoints::to_env`] string armed in that slot's
    /// environment on its **first** spawn only (respawns run clean, like a
    /// quarantined template rebuilt cold).
    pub chaos: Vec<(usize, String)>,
}

impl DistOptions {
    /// Options with the default robustness knobs (100 ms heartbeat, 2 s
    /// deadline, [`MAX_PANIC_RETRIES`] restarts, no chaos).
    pub fn new(workers: usize, worker: WorkerSpec) -> Self {
        DistOptions {
            workers,
            worker,
            heartbeat: Duration::from_millis(100),
            deadline: Duration::from_secs(2),
            max_restarts: MAX_PANIC_RETRIES,
            chaos: Vec::new(),
        }
    }
}

/// Run Flexile's offline phase on a coordinator/worker process fleet.
/// Produces a design bit-identical to [`crate::solve_flexile`] with the
/// same `opts`, at any worker count and under worker death, hangs, and
/// frame corruption.
pub fn solve_flexile_dist(
    inst: &Instance,
    set: &ScenarioSet,
    opts: &FlexileOptions,
    dopts: &DistOptions,
) -> Result<FlexileDesign, DistError> {
    let prep = decomposition::prepare(inst, set, opts);
    let state = BendersState::fresh(&prep.allowed, set.scenarios.len());
    run_dist(inst, set, opts, dopts, &prep, state, None)
}

/// Resume a checkpointed decomposition on the distributed substrate (the
/// process-fleet analogue of [`crate::decompose_resume`]). The checkpoint
/// must fingerprint-match the problem and options; workers additionally
/// re-verify the same fingerprints at handshake.
pub fn decompose_resume_dist(
    inst: &Instance,
    set: &ScenarioSet,
    opts: &FlexileOptions,
    dopts: &DistOptions,
) -> Result<FlexileDesign, DistError> {
    let dir = opts
        .checkpoint_dir
        .as_ref()
        .ok_or(DistError::Checkpoint(CheckpointError::NoCheckpointConfigured))?;
    let ck = checkpoint::read_checkpoint(&checkpoint::checkpoint_path(dir))
        .map_err(DistError::Checkpoint)?;
    checkpoint::validate_fingerprints(&ck, inst, set, opts).map_err(DistError::Checkpoint)?;
    let betas = crate::effective_betas(inst, set);
    if betas.len() != ck.betas.len()
        || betas.iter().zip(&ck.betas).any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(DistError::Checkpoint(CheckpointError::ProblemMismatch {
            component: "betas",
        }));
    }
    let state = BendersState::from_checkpoint(&ck).map_err(DistError::Checkpoint)?;
    let snap = PoolSnapshot { stamps: ck.stamps, chains: ck.chains };
    if state.done {
        return Ok(design_from_state(state, &betas));
    }
    let prep = decomposition::prepare(inst, set, opts);
    run_dist(inst, set, opts, dopts, &prep, state, Some((ck.it, snap)))
}

fn run_dist(
    inst: &Instance,
    set: &ScenarioSet,
    opts: &FlexileOptions,
    dopts: &DistOptions,
    prep: &decomposition::Prepared,
    state: BendersState,
    restore: Option<(usize, PoolSnapshot)>,
) -> Result<FlexileDesign, DistError> {
    let ctx = PoolCtx {
        inst,
        set,
        loss_ub: prep.loss_ub.as_deref(),
        watchdog: opts.watchdog,
    };
    let hello = Hello {
        problem_parts: checkpoint::problem_fingerprint_parts(inst, set),
        options_parts: checkpoint::options_fingerprint_parts(opts),
        problem: WireProblem {
            inst: inst.clone(),
            set: set.clone(),
            loss_ub: prep.loss_ub.clone(),
        },
        knobs: WireKnobs {
            max_iterations: opts.max_iterations as u64,
            prune: opts.prune,
            gamma: opts.gamma,
            hamming_limit: opts.master.hamming_limit as u64,
            exact_threshold: opts.master.exact_threshold as u64,
            pool: match opts.pool {
                PoolPolicy::PerScenario => 0,
                PoolPolicy::Cold => 2,
            },
            basis_residency: opts.basis_residency as u64,
            watchdog_millis: opts.watchdog.map(|d| d.as_millis() as u64),
            heartbeat_millis: dopts.heartbeat.as_millis().max(1) as u64,
        },
    };
    let residency = if opts.pool == PoolPolicy::Cold { 0 } else { opts.basis_residency };
    let mut solver = DistSolver::new(ctx, &hello, dopts, residency)?;
    if let Some((it, snap)) = &restore {
        solver.restore(*it, snap);
    }
    Ok(run_decomposition(inst, set, opts, &prep.betas, &prep.allowed, &mut solver, state))
}

/// At-most-once gate for an incoming result frame: it must come from the
/// slot's *current* connection, reference a scenario still pending, and
/// carry the scenario's current assignment epoch. Everything else is a
/// duplicate or a ghost from a replaced worker.
pub(crate) fn result_is_current(
    frame_epoch: u64,
    scen_epoch: u64,
    event_conn: u64,
    slot_conn: u64,
    pending: bool,
) -> bool {
    pending && event_conn != 0 && event_conn == slot_conn && frame_epoch == scen_epoch
}

/// Messages from the acceptor / per-connection reader threads to the
/// coordinator's event loop, each tagged with the connection id that
/// produced it so events from replaced connections are discarded.
enum Event {
    /// A worker completed the fingerprint handshake; `stream` is the write
    /// half for assignments.
    Ready { slot: usize, conn_id: u64, stream: TcpStream },
    /// A worker refused the handshake, naming the diverging component. No
    /// connection id: a rejected connection is never installed, so there
    /// is nothing to be stale against.
    Rejected { slot: usize, component: String },
    /// A validated frame arrived.
    Frame { slot: usize, conn_id: u64, frame: Frame },
    /// A frame failed checksum/validation; the connection is condemned.
    Corrupt { slot: usize, conn_id: u64 },
    /// The connection closed or the transport failed.
    Gone { slot: usize, conn_id: u64 },
}

struct WorkerState {
    child: Option<Child>,
    /// Write half of the current connection (`None` while (re)spawning).
    conn: Option<TcpStream>,
    /// Id of the current connection; 0 = none. Events carrying any other
    /// id are stale.
    conn_id: u64,
    last_seen: Instant,
    spawned_at: Instant,
    spawned_once: bool,
    restarts: u32,
    quarantined: bool,
    /// A write to this connection failed mid-wave; assignments to it stay
    /// logical (no further writes) until the death event lands.
    broken: bool,
}

/// Degraded-mode state: the in-process slots the coordinator solves on
/// once every worker is gone.
struct LocalExec {
    slots: Vec<Mutex<Slot>>,
    scratch: SolveScratch,
}

struct DistSolver<'a> {
    ctx: PoolCtx<'a>,
    addr: SocketAddr,
    rx: Receiver<Event>,
    workers: Vec<WorkerState>,
    command: (String, Vec<String>),
    chaos: Vec<(usize, String)>,
    deadline: Duration,
    max_restarts: u32,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,

    // Chain mirror + LRU bookkeeping (the coordinator's authoritative copy
    // of every worker-side template's provenance).
    chains: Vec<Vec<Vec<bool>>>,
    resident: Vec<bool>,
    stamps: Vec<u64>,
    residency: usize,
    epoch: u64,
    scen_epoch: Vec<u64>,

    // Current-wave state.
    pending: BTreeMap<usize, Vec<bool>>,
    assigned: HashMap<usize, usize>,
    parked: BTreeSet<usize>,
    wave_results: Vec<ScenResult>,
    cut_stash: Vec<(u64, Cut)>,

    local: Option<LocalExec>,
}

impl<'a> DistSolver<'a> {
    fn new(
        ctx: PoolCtx<'a>,
        hello: &Hello,
        dopts: &DistOptions,
        residency: usize,
    ) -> Result<Self, DistError> {
        let nq = ctx.set.scenarios.len();
        let command = match &dopts.worker {
            WorkerSpec::CurrentExe { args } => {
                let exe = std::env::current_exe()
                    .map_err(|e| DistError::Env(format!("current_exe: {e}")))?;
                (exe.to_string_lossy().into_owned(), args.clone())
            }
            WorkerSpec::Command { program, args } => (program.clone(), args.clone()),
        };
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| DistError::Io(format!("bind coordinator listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| DistError::Io(format!("listener address: {e}")))?;
        let (tx, rx) = channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let hello_bytes = Arc::new(encode_frame(&Frame::Hello(Box::new(hello.clone()))));
        let acceptor = {
            let tx = tx.clone();
            let shutdown = Arc::clone(&shutdown);
            let hello_bytes = Arc::clone(&hello_bytes);
            let nworkers = dopts.workers;
            let handshake_deadline = dopts.deadline;
            std::thread::spawn(move || {
                acceptor_loop(listener, tx, shutdown, hello_bytes, nworkers, handshake_deadline)
            })
        };
        let now = Instant::now();
        let workers = (0..dopts.workers)
            .map(|_| WorkerState {
                child: None,
                conn: None,
                conn_id: 0,
                last_seen: now,
                spawned_at: now,
                spawned_once: false,
                restarts: 0,
                quarantined: false,
                broken: false,
            })
            .collect();
        Ok(DistSolver {
            ctx,
            addr,
            rx,
            workers,
            command,
            chaos: dopts.chaos.clone(),
            deadline: dopts.deadline,
            max_restarts: dopts.max_restarts,
            shutdown,
            acceptor: Some(acceptor),
            chains: vec![Vec::new(); nq],
            resident: vec![false; nq],
            stamps: vec![0; nq],
            residency,
            epoch: 0,
            scen_epoch: vec![0; nq],
            pending: BTreeMap::new(),
            assigned: HashMap::new(),
            parked: BTreeSet::new(),
            wave_results: Vec::new(),
            cut_stash: Vec::new(),
            local: None,
        })
    }

    fn all_dead(&self) -> bool {
        self.workers.is_empty() || self.workers.iter().all(|w| w.quarantined)
    }

    fn spawn(&mut self, slot: usize) {
        let (program, args) = &self.command;
        let mut cmd = Command::new(program);
        cmd.args(args)
            .env(CONNECT_ENV, self.addr.to_string())
            .env(SLOT_ENV, slot.to_string())
            .env_remove(CHAOS_ENV)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        // Chaos is armed on the first incarnation only: a respawned worker,
        // like a quarantined template, comes back clean.
        if !self.workers[slot].spawned_once {
            if let Some((_, spec)) = self.chaos.iter().find(|(s, _)| *s == slot) {
                cmd.env(CHAOS_ENV, spec);
            }
        }
        let ws = &mut self.workers[slot];
        ws.spawned_once = true;
        match cmd.spawn() {
            Ok(child) => {
                ws.child = Some(child);
                ws.spawned_at = Instant::now();
                flexile_obs::add("flexile.dist_workers_spawned", 1);
            }
            Err(e) => {
                eprintln!("dist: spawning worker {slot} failed: {e}");
                ws.restarts += 1;
                if ws.restarts > self.max_restarts {
                    ws.quarantined = true;
                    flexile_obs::add("flexile.dist_worker_quarantined", 1);
                    flexile_obs::flight::dump("dist_worker_quarantined");
                }
            }
        }
    }

    /// Block until every non-quarantined slot has a handshaken connection
    /// (spawning and replacing as needed), so wave sharding never depends
    /// on spawn timing. Returns with `all_dead()` true if every slot
    /// quarantines on the way.
    fn ensure_workers(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        for ws in &mut self.workers {
            ws.broken = false;
        }
        loop {
            if self.all_dead() {
                return;
            }
            let mut all_ready = true;
            for slot in 0..self.workers.len() {
                let ws = &self.workers[slot];
                if ws.quarantined || ws.conn.is_some() {
                    continue;
                }
                all_ready = false;
                if ws.child.is_none() {
                    self.spawn(slot);
                }
            }
            if all_ready {
                break;
            }
            match self.rx.recv_timeout(Duration::from_millis(20)) {
                Ok(ev) => self.handle_event(ev, 0),
                Err(RecvTimeoutError::Timeout) => self.check_deadlines(0),
                Err(RecvTimeoutError::Disconnected) => {
                    // The acceptor is gone; nothing will ever hand us a
                    // connection again. Quarantine everything and degrade.
                    for slot in 0..self.workers.len() {
                        if !self.workers[slot].quarantined {
                            self.kill_worker(slot, 0);
                            self.workers[slot].quarantined = true;
                        }
                    }
                    return;
                }
            }
        }
        // Fresh liveness baseline: the gap since the last wave (master
        // solve, checkpoint write) must not count against the deadline.
        let now = Instant::now();
        for ws in &mut self.workers {
            if ws.conn.is_some() {
                ws.last_seen = now;
            }
        }
    }

    /// First assignable slot scanning cyclically from `pref`. Initial wave
    /// sharding uses [`Self::initial_target`] instead so the shard map is
    /// fixed at wave start.
    fn pick_target(&self, pref: usize) -> Option<usize> {
        let n = self.workers.len();
        (0..n).map(|k| (pref + k) % n).find(|&s| {
            let ws = &self.workers[s];
            !ws.quarantined && !ws.broken && ws.conn.is_some()
        })
    }

    /// Wave-start shard target for scenario `q`: the first non-quarantined
    /// slot scanning from `q % n`. `ensure_workers` guarantees every such
    /// slot is connected, and mid-pump write failures do not reroute (the
    /// slot keeps its logical share and the death path reassigns it), so
    /// the shard map — and every reassignment count derived from it — is a
    /// pure function of which slots were alive at wave start.
    fn initial_target(&self, pref: usize) -> Option<usize> {
        let n = self.workers.len();
        (0..n).map(|k| (pref + k) % n).find(|&s| !self.workers[s].quarantined)
    }

    /// Record `q`'s assignment to slot `t` under the current epoch and ship
    /// the Assign frame (skipped, not rerouted, if the connection already
    /// failed this wave).
    fn send_assign(&mut self, t: usize, q: usize, it: usize) {
        self.scen_epoch[q] = self.epoch;
        self.assigned.insert(q, t);
        let frame = Frame::Assign {
            epoch: self.epoch,
            iteration: it as u64,
            scenario: q as u64,
            col: self.pending[&q].clone(),
            chain: self.chains[q].clone(),
        };
        let ws = &mut self.workers[t];
        if ws.broken {
            return;
        }
        match ws.conn.as_mut() {
            Some(conn) => {
                if write_frame(conn, &frame).is_err() {
                    ws.broken = true;
                }
            }
            None => ws.broken = true,
        }
    }

    fn broadcast(&mut self, frame: &Frame) {
        let bytes = encode_frame(frame);
        for ws in &mut self.workers {
            if ws.broken || ws.quarantined {
                continue;
            }
            if let Some(conn) = ws.conn.as_mut() {
                if write_frame_bytes(conn, &bytes).is_err() {
                    ws.broken = true;
                }
            }
        }
    }

    /// Death path: kill and reap the process, bump the restart ladder
    /// (respawn or quarantine), and reassign every scenario the slot still
    /// owed under a fresh epoch.
    fn kill_worker(&mut self, slot: usize, it: usize) {
        flexile_obs::add("flexile.dist_worker_dead", 1);
        flexile_obs::flight::dump("dist_worker_dead");
        {
            let ws = &mut self.workers[slot];
            if let Some(mut child) = ws.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            ws.conn = None;
            ws.conn_id = 0;
            ws.broken = false;
            ws.restarts += 1;
        }
        if self.workers[slot].restarts > self.max_restarts {
            self.workers[slot].quarantined = true;
            flexile_obs::add("flexile.dist_worker_quarantined", 1);
            flexile_obs::flight::dump("dist_worker_quarantined");
        } else {
            self.spawn(slot);
            flexile_obs::add("flexile.dist_worker_restart", 1);
        }
        let mut mine: Vec<usize> =
            self.assigned.iter().filter(|&(_, &s)| s == slot).map(|(&q, _)| q).collect();
        mine.sort_unstable();
        if mine.is_empty() {
            return;
        }
        self.epoch += 1;
        for q in mine {
            self.assigned.remove(&q);
            flexile_obs::add("flexile.dist_reassigned", 1);
            match self.pick_target(q % self.workers.len()) {
                Some(t) => self.send_assign(t, q, it),
                None => {
                    self.scen_epoch[q] = self.epoch;
                    self.parked.insert(q);
                }
            }
        }
    }

    fn handle_event(&mut self, ev: Event, it: usize) {
        match ev {
            Event::Ready { slot, conn_id, stream } => {
                if slot >= self.workers.len() || self.workers[slot].quarantined {
                    return;
                }
                let ws = &mut self.workers[slot];
                ws.conn = Some(stream);
                ws.conn_id = conn_id;
                ws.last_seen = Instant::now();
                ws.broken = false;
                if !self.parked.is_empty() {
                    self.epoch += 1;
                    let parked: Vec<usize> = std::mem::take(&mut self.parked).into_iter().collect();
                    for q in parked {
                        match self.pick_target(q % self.workers.len()) {
                            Some(t) => self.send_assign(t, q, it),
                            None => {
                                self.scen_epoch[q] = self.epoch;
                                self.parked.insert(q);
                            }
                        }
                    }
                }
            }
            Event::Rejected { slot, component } => {
                if slot >= self.workers.len() || self.workers[slot].quarantined {
                    return;
                }
                eprintln!("dist: worker {slot} rejected handshake: {component} differs");
                flexile_obs::add("flexile.dist_handshake_reject", 1);
                flexile_obs::flight::dump("dist_handshake_reject");
                self.kill_worker(slot, it);
            }
            Event::Frame { slot, conn_id, frame } => {
                if slot >= self.workers.len() || conn_id != self.workers[slot].conn_id {
                    if matches!(frame, Frame::Result { .. }) {
                        flexile_obs::add("flexile.dist_stale_result", 1);
                    }
                    return;
                }
                self.workers[slot].last_seen = Instant::now();
                match frame {
                    Frame::Result { epoch, iteration: _, scenario, outcome } => {
                        let q = scenario as usize;
                        let current = q < self.scen_epoch.len()
                            && result_is_current(
                                epoch,
                                self.scen_epoch[q],
                                conn_id,
                                self.workers[slot].conn_id,
                                self.pending.contains_key(&q),
                            );
                        if !current {
                            flexile_obs::add("flexile.dist_stale_result", 1);
                            return;
                        }
                        let col = self.pending.remove(&q).expect("gated on pending");
                        self.assigned.remove(&q);
                        self.apply_outcome(slot, q, col, outcome);
                    }
                    Frame::Heartbeat { .. } => {}
                    _ => {
                        // A worker speaking out of protocol is as unusable
                        // as a corrupt stream.
                        self.kill_worker(slot, it);
                    }
                }
            }
            Event::Corrupt { slot, conn_id } => {
                if slot >= self.workers.len() || conn_id != self.workers[slot].conn_id {
                    return;
                }
                flexile_obs::add("flexile.dist_frame_corrupt", 1);
                flexile_obs::flight::dump("dist_frame_corrupt");
                self.kill_worker(slot, it);
            }
            Event::Gone { slot, conn_id } => {
                if slot >= self.workers.len() || conn_id != self.workers[slot].conn_id {
                    return;
                }
                self.kill_worker(slot, it);
            }
        }
    }

    fn check_deadlines(&mut self, it: usize) {
        let now = Instant::now();
        let mut stalled: Vec<usize> = Vec::new();
        let mut overdue: Vec<usize> = Vec::new();
        let mut respawn: Vec<usize> = Vec::new();
        for (slot, ws) in self.workers.iter().enumerate() {
            if ws.quarantined {
                continue;
            }
            if ws.conn.is_some() {
                if now.duration_since(ws.last_seen) > self.deadline {
                    stalled.push(slot);
                }
            } else if ws.child.is_some() {
                if now.duration_since(ws.spawned_at) > self.deadline {
                    overdue.push(slot);
                }
            } else {
                respawn.push(slot);
            }
        }
        for slot in stalled {
            flexile_obs::add("flexile.dist_heartbeat_stall", 1);
            flexile_obs::flight::dump("dist_heartbeat_stall");
            self.kill_worker(slot, it);
        }
        for slot in overdue {
            // Spawned but never handshook within the deadline: treat as a
            // death so the restart ladder (and eventually quarantine)
            // applies.
            self.kill_worker(slot, it);
        }
        for slot in respawn {
            self.spawn(slot);
        }
    }

    /// Apply a worker's result to the chain mirror by the same rules
    /// [`solve_contained`] applies to a local slot, and surface it as this
    /// wave's [`ScenResult`].
    fn apply_outcome(&mut self, slot: usize, q: usize, col: Vec<bool>, outcome: Outcome) {
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
                if chain_reset {
                    self.chains[q].clear();
                }
                self.chains[q].push(col);
                self.resident[q] = true;
                let sol = SubproblemSolution { value, alpha, loss, cut };
                let stats = SolveStats {
                    warm_hit,
                    dual_restart,
                    iterations: lp_iterations as usize,
                    watchdog_restart,
                };
                self.wave_results.push((q, Ok((sol, stats))));
            }
            Outcome::Poisoned { attempts, message } => {
                // The worker quarantined the slot; mirror the cleared chain.
                self.chains[q].clear();
                self.resident[q] = false;
                self.wave_results.push((
                    q,
                    Err(PoolError::ScenarioPoisoned { scenario: q, worker: slot, attempts, message }),
                ));
            }
            Outcome::Failed { message } => {
                // A terminal LP failure leaves the template resident with
                // an unchanged chain (built by get-or-insert, history only
                // extends on success) — exactly like the in-process slot.
                self.resident[q] = true;
                self.wave_results
                    .push((q, Err(PoolError::Remote { scenario: q, worker: slot, message })));
            }
        }
    }

    /// Permanently degrade to in-process solving: rebuild warm templates by
    /// replaying the chain mirror (the same re-warm a resume performs),
    /// then serve this and all future waves locally.
    fn enter_fallback(&mut self) {
        flexile_obs::add("flexile.dist_fallback", 1);
        flexile_obs::flight::dump("dist_fallback");
        let nq = self.ctx.set.scenarios.len();
        let local =
            LocalExec { slots: (0..nq).map(|_| Mutex::new(Slot::default())).collect(), scratch: SolveScratch::new() };
        self.local = Some(local);
        let local = self.local.as_mut().expect("just installed");
        for q in 0..nq {
            if self.chains[q].is_empty() {
                continue;
            }
            let mut ok = true;
            for col in &self.chains[q] {
                if solve_contained(&local.slots, &self.ctx, 0, q, col, 0, &mut local.scratch)
                    .is_err()
                {
                    ok = false;
                    break;
                }
            }
            if !ok {
                let mut s = lock_recover(&local.slots[q]);
                s.tmpl = None;
                s.history.clear();
                self.chains[q].clear();
                self.resident[q] = false;
            }
        }
    }

    /// One in-process solve in degraded mode, with the identical mirror
    /// bookkeeping the remote path performs.
    fn solve_one_local(&mut self, it: usize, q: usize, col: &[bool]) {
        let local = self.local.as_mut().expect("degraded mode active");
        let res = solve_contained(&local.slots, &self.ctx, it, q, col, 0, &mut local.scratch);
        match &res {
            Ok(_) => {
                let reset = lock_recover(&local.slots[q]).history.len() == 1;
                if reset {
                    self.chains[q].clear();
                }
                self.chains[q].push(col.to_vec());
                self.resident[q] = true;
            }
            Err(PoolError::ScenarioPoisoned { .. }) => {
                self.chains[q].clear();
                self.resident[q] = false;
            }
            Err(_) => {
                self.resident[q] = true;
            }
        }
        self.wave_results.push((q, res));
    }

    fn remote_wave(&mut self, it: usize, todo: &[usize]) {
        self.epoch += 1;
        let n = self.workers.len();
        for &q in todo {
            let t = self.initial_target(q % n).expect("a live slot exists");
            self.send_assign(t, q, it);
        }
        while !self.pending.is_empty() {
            if self.all_dead() {
                self.enter_fallback();
                let rest: Vec<(usize, Vec<bool>)> =
                    std::mem::take(&mut self.pending).into_iter().collect();
                self.parked.clear();
                self.assigned.clear();
                for (q, col) in rest {
                    self.solve_one_local(it, q, &col);
                }
                return;
            }
            match self.rx.recv_timeout(Duration::from_millis(20)) {
                Ok(ev) => self.handle_event(ev, it),
                Err(RecvTimeoutError::Timeout) => self.check_deadlines(it),
                Err(RecvTimeoutError::Disconnected) => {
                    for slot in 0..self.workers.len() {
                        if !self.workers[slot].quarantined {
                            self.kill_worker(slot, it);
                            self.workers[slot].quarantined = true;
                        }
                    }
                }
            }
        }
    }

    /// Enforce the residency budget on the chain mirror, exactly as
    /// [`crate::pool`]'s handle does on its slots: oldest stamp first, ties
    /// by lower scenario index, only at iteration boundaries.
    fn evict(&mut self) {
        let mut live: Vec<(u64, usize)> = (0..self.resident.len())
            .filter(|&q| self.resident[q])
            .map(|q| (self.stamps[q], q))
            .collect();
        if live.len() <= self.residency {
            return;
        }
        live.sort_unstable();
        let excess = live.len() - self.residency;
        for &(_, q) in live.iter().take(excess) {
            self.drop_scenario_state(q);
            self.stamps[q] = 0;
        }
    }

    /// Clear scenario `q`'s mirrored state and release whatever holds it:
    /// the local slot in degraded mode, or the worker fleet via a Retire
    /// broadcast (workers that miss it — mid-respawn — self-correct on the
    /// next Assign, whose shipped chain is authoritative).
    fn drop_scenario_state(&mut self, q: usize) {
        self.chains[q].clear();
        self.resident[q] = false;
        match &mut self.local {
            Some(local) => {
                let mut s = lock_recover(&local.slots[q]);
                s.tmpl = None;
                s.history.clear();
            }
            None => self.broadcast(&Frame::Retire { scenario: q as u64 }),
        }
    }
}

impl IterationSolver for DistSolver<'_> {
    fn solve_iteration(
        &mut self,
        it: usize,
        todo: &[usize],
        cols: Vec<Vec<bool>>,
    ) -> Vec<ScenResult> {
        if todo.is_empty() {
            return Vec::new();
        }
        self.cut_stash.clear();
        self.wave_results = Vec::with_capacity(todo.len());
        self.pending.clear();
        self.assigned.clear();
        self.parked.clear();
        for (i, &q) in todo.iter().enumerate() {
            self.pending.insert(q, cols[i].clone());
        }
        if self.local.is_none() {
            self.ensure_workers();
            if self.all_dead() {
                self.enter_fallback();
            }
        }
        if self.local.is_some() {
            let rest: Vec<(usize, Vec<bool>)> =
                std::mem::take(&mut self.pending).into_iter().collect();
            for (q, col) in rest {
                self.solve_one_local(it, q, &col);
            }
        } else {
            self.remote_wave(it, todo);
        }
        let mut results = std::mem::take(&mut self.wave_results);
        results.sort_by_key(|&(q, _)| q);
        for (q, r) in &results {
            if let Ok((sol, _)) = r {
                if sol.value > 1e-9 {
                    self.cut_stash.push((*q as u64, sol.cut.clone()));
                }
            }
        }
        for &q in todo {
            self.stamps[q] = it as u64;
        }
        self.evict();
        results
    }

    fn retire(&mut self, q: usize) {
        self.drop_scenario_state(q);
        self.stamps[q] = 0;
    }

    fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot { stamps: self.stamps.clone(), chains: self.chains.clone() }
    }

    fn restore(&mut self, _it: usize, snap: &PoolSnapshot) {
        self.stamps = snap.stamps.clone();
        self.chains = snap.chains.clone();
        for q in 0..self.chains.len() {
            self.resident[q] = !self.chains[q].is_empty();
        }
        // No eager replay: every Assign ships the authoritative chain and
        // workers re-warm lazily on first divergence.
    }

    fn iteration_complete(&mut self, it: usize, penalty: f64, z: &[Vec<bool>]) {
        if self.local.is_some() || self.workers.is_empty() {
            self.cut_stash.clear();
            return;
        }
        let cuts = std::mem::take(&mut self.cut_stash);
        let frame =
            Frame::IterSync { iteration: it as u64, cuts, penalty, z: z.to_vec() };
        self.broadcast(&frame);
    }
}

impl Drop for DistSolver<'_> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let bytes = encode_frame(&Frame::Shutdown);
        for ws in &mut self.workers {
            if let Some(conn) = ws.conn.as_mut() {
                let _ = write_frame_bytes(conn, &bytes);
            }
        }
        // Orphan-proofing: the courtesy Shutdown above lets a healthy
        // worker exit cleanly, but nothing is allowed to outlive the
        // coordinator.
        for ws in &mut self.workers {
            if let Some(mut child) = ws.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        // Wake the acceptor out of accept() so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Accept loop: per connection, run the fingerprint handshake synchronously
/// (bounded by read timeouts), then hand the write half to the event loop
/// and service the read half on a dedicated reader thread.
fn acceptor_loop(
    listener: TcpListener,
    tx: Sender<Event>,
    shutdown: Arc<AtomicBool>,
    hello_bytes: Arc<Vec<u8>>,
    nworkers: usize,
    handshake_deadline: Duration,
) {
    let next_conn_id = AtomicU64::new(1);
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        stream.set_nodelay(true).ok();
        if stream.set_read_timeout(Some(handshake_deadline.max(Duration::from_millis(10)))).is_err()
        {
            continue;
        }
        let slot = match read_frame(&mut stream) {
            Ok(Frame::Join { slot }) => slot as usize,
            _ => continue,
        };
        if slot >= nworkers {
            continue;
        }
        let conn_id = next_conn_id.fetch_add(1, Ordering::Relaxed);
        if write_frame_bytes(&mut stream, &hello_bytes).is_err() {
            continue;
        }
        match read_frame(&mut stream) {
            Ok(Frame::HelloAck) => {
                if stream.set_read_timeout(None).is_err() {
                    continue;
                }
                let Ok(write_half) = stream.try_clone() else { continue };
                if tx.send(Event::Ready { slot, conn_id, stream: write_half }).is_err() {
                    return;
                }
                let tx = tx.clone();
                std::thread::spawn(move || loop {
                    match read_frame(&mut stream) {
                        Ok(frame) => {
                            if tx.send(Event::Frame { slot, conn_id, frame }).is_err() {
                                return;
                            }
                        }
                        Err(FrameReadError::Corrupt(_)) => {
                            let _ = tx.send(Event::Corrupt { slot, conn_id });
                            return;
                        }
                        Err(FrameReadError::Io(_)) => {
                            let _ = tx.send(Event::Gone { slot, conn_id });
                            return;
                        }
                    }
                });
            }
            Ok(Frame::HelloReject { component }) => {
                if tx.send(Event::Rejected { slot, component }).is_err() {
                    return;
                }
            }
            _ => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_gate_rejects_stale_epochs_and_connections() {
        // Current assignment: epoch 7 on connection 3.
        assert!(result_is_current(7, 7, 3, 3, true));
        // Older epoch (pre-reassignment ghost).
        assert!(!result_is_current(6, 7, 3, 3, true));
        // Right epoch, replaced connection.
        assert!(!result_is_current(7, 7, 2, 3, true));
        // Slot currently has no connection at all.
        assert!(!result_is_current(7, 7, 3, 0, true));
        // Scenario already completed (duplicate result).
        assert!(!result_is_current(7, 7, 3, 3, false));
    }
}
