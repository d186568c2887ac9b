//! The worker-process side of the distributed pool.
//!
//! A worker is a separate OS process that connects back to the
//! coordinator (address from `FLEXILE_DIST_CONNECT`), claims its slot
//! (`FLEXILE_DIST_SLOT`), validates the shipped problem against the
//! coordinator's declared fingerprints — *recomputing* both fingerprints
//! from the decoded bytes rather than trusting the header — and then
//! serves [`Frame::Assign`] requests until told to shut down (or until
//! the coordinator vanishes, which reads as EOF and is a clean exit).
//!
//! Per-scenario solve state is the same [`Slot`] the in-process pool
//! uses, driven by the same [`solve_contained`] containment (panic
//! quarantine, bounded retries, chain bookkeeping). On every assignment
//! the worker reconciles its slot against the coordinator's authoritative
//! solve-column chain: if they diverge (fresh process, reassignment,
//! eviction) the slot is rebuilt by replaying the chain through a cold
//! template — the identical mechanism `decompose_resume` uses — so the
//! solve that follows is bit-for-bit what the in-process pool would have
//! produced.
//!
//! Chaos probes ([`crate::killpoints`], armed via `FLEXILE_DIST_CHAOS`):
//! process abort on assignment, whole-process heartbeat stall, and
//! result-frame checksum corruption.

use super::frame::{
    encode_frame, read_frame, write_frame, write_frame_bytes, Frame, FrameReadError, Hello,
    Outcome,
};
use super::retry::RetryPolicy;
use super::DistError;
use crate::checkpoint::{self, CheckpointError};
use crate::decomposition::{FlexileOptions, PoolPolicy};
use crate::killpoints;
use crate::master::MasterOptions;
use crate::pool::{lock_recover, solve_contained, PoolCtx, PoolError, Slot};
use crate::subproblem::Cut;
use flexile_lp::SolveScratch;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Environment variable carrying the coordinator's listen address.
pub const CONNECT_ENV: &str = "FLEXILE_DIST_CONNECT";
/// Environment variable carrying this worker's slot index.
pub const SLOT_ENV: &str = "FLEXILE_DIST_SLOT";
/// Environment variable carrying a [`crate::killpoints::to_env`] chaos
/// spec to arm in the worker process.
pub const CHAOS_ENV: &str = "FLEXILE_DIST_CHAOS";

/// Rebuild the trajectory-relevant [`FlexileOptions`] a [`Hello`]'s knobs
/// describe, then validate the hello's declared fingerprints against ones
/// recomputed from the decoded problem and the rebuilt options. Returns
/// the rebuilt options on success; on mismatch, the typed error names the
/// first diverging component (this is the distributed handshake's
/// rejection path, unit-tested in both directions in `tests/dist.rs`).
pub fn verify_hello(h: &Hello) -> Result<FlexileOptions, CheckpointError> {
    let k = &h.knobs;
    let pool = match k.pool {
        0 => PoolPolicy::PerScenario,
        2 => PoolPolicy::Cold,
        _ => return Err(CheckpointError::Malformed("pool policy tag")),
    };
    let opts = FlexileOptions {
        max_iterations: k.max_iterations as usize,
        threads: 1,
        master: MasterOptions {
            hamming_limit: k.hamming_limit as usize,
            exact_threshold: k.exact_threshold as usize,
            ..MasterOptions::default()
        },
        gamma: k.gamma,
        prune: k.prune,
        pool,
        basis_residency: k.basis_residency as usize,
        watchdog: None,
        checkpoint_dir: None,
        checkpoint_every: 1,
    };
    checkpoint::check_parts(
        &h.problem_parts,
        &checkpoint::problem_fingerprint_parts(&h.problem.inst, &h.problem.set),
        &h.options_parts,
        &checkpoint::options_fingerprint_parts(&opts),
    )?;
    Ok(opts)
}

/// The component name a handshake rejection reports for a fingerprint
/// error (the payload of [`Frame::HelloReject`]).
pub(crate) fn reject_component(e: &CheckpointError) -> String {
    match e {
        CheckpointError::ProblemMismatch { component }
        | CheckpointError::OptionsMismatch { component }
        | CheckpointError::PoolConfigMismatch { component } => (*component).to_string(),
        other => other.to_string(),
    }
}

/// Entry point for a worker process: read the connect address, slot, and
/// optional chaos spec from the environment and serve until shutdown.
/// Test binaries and `repro dist_worker` both funnel here.
pub fn worker_entry() -> Result<(), DistError> {
    let addr = std::env::var(CONNECT_ENV)
        .map_err(|_| DistError::Env(format!("{CONNECT_ENV} is not set")))?;
    let slot: usize = std::env::var(SLOT_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| DistError::Env(format!("{SLOT_ENV} is not a valid slot index")))?;
    // Keep the guard alive for the process lifetime: the whole point is to
    // die (or stall) when the armed point fires.
    let _chaos = match std::env::var(CHAOS_ENV) {
        Ok(spec) => Some(killpoints::arm_from_env(&spec).map_err(DistError::Env)?),
        Err(_) => None,
    };
    run_worker(&addr, slot)
}

/// Connect to `addr`, handshake as `slot`, and serve assignments.
pub(crate) fn run_worker(addr: &str, slot: usize) -> Result<(), DistError> {
    let retry = RetryPolicy::new(slot as u64);
    let stream = retry
        .run(|| TcpStream::connect(addr))
        .map_err(|e| DistError::Io(format!("connect {addr}: {e}")))?;
    stream.set_nodelay(true).ok();
    let mut reader = stream
        .try_clone()
        .map_err(|e| DistError::Io(format!("clone stream: {e}")))?;
    let writer = Arc::new(Mutex::new(stream));

    {
        let mut w = lock_recover(&writer);
        write_frame(&mut *w, &Frame::Join { slot: slot as u64 })
            .map_err(|e| DistError::Io(format!("send join: {e}")))?;
    }
    let hello = match read_frame(&mut reader) {
        Ok(Frame::Hello(h)) => h,
        Ok(other) => {
            return Err(DistError::Protocol(format!("expected hello, got {}", frame_name(&other))))
        }
        Err(FrameReadError::Io(e)) => return Err(DistError::Io(format!("read hello: {e}"))),
        Err(FrameReadError::Corrupt(e)) => return Err(DistError::Protocol(e.to_string())),
    };
    match verify_hello(&hello) {
        Err(e) => {
            let mut w = lock_recover(&writer);
            let _ = write_frame(
                &mut *w,
                &Frame::HelloReject { component: reject_component(&e) },
            );
            // A rejected handshake is a *successful* refusal, not a worker
            // crash: exit cleanly and let the coordinator decide.
            Ok(())
        }
        Ok(_opts) => {
            {
                let mut w = lock_recover(&writer);
                write_frame(&mut *w, &Frame::HelloAck)
                    .map_err(|e| DistError::Io(format!("send ack: {e}")))?;
            }
            serve(&mut reader, &writer, &hello, slot)
        }
    }
}

fn frame_name(f: &Frame) -> &'static str {
    match f {
        Frame::Join { .. } => "join",
        Frame::Hello(_) => "hello",
        Frame::HelloAck => "hello-ack",
        Frame::HelloReject { .. } => "hello-reject",
        Frame::Assign { .. } => "assign",
        Frame::Result { .. } => "result",
        Frame::Retire { .. } => "retire",
        Frame::IterSync { .. } => "iter-sync",
        Frame::Heartbeat { .. } => "heartbeat",
        Frame::Shutdown => "shutdown",
    }
}

/// The worker's mirror of the coordinator's master state, updated from
/// [`Frame::IterSync`] broadcasts. Not consulted by the solves themselves
/// (subproblems depend only on their column), but kept so a worker always
/// knows the incumbent and cut pool it is contributing to.
struct MasterView {
    cuts: Vec<Vec<Cut>>,
    incumbent: Option<(usize, f64)>,
}

fn serve(
    reader: &mut TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    hello: &Hello,
    slot_id: usize,
) -> Result<(), DistError> {
    let problem = &hello.problem;
    let nq = problem.set.scenarios.len();
    let ctx = PoolCtx {
        inst: &problem.inst,
        set: &problem.set,
        loss_ub: problem.loss_ub.as_deref(),
        watchdog: hello.knobs.watchdog_millis.map(Duration::from_millis),
    };
    let slots: Vec<Mutex<Slot>> = (0..nq).map(|_| Mutex::new(Slot::default())).collect();
    let mut scratch = SolveScratch::new();
    let mut view = MasterView { cuts: vec![Vec::new(); nq], incumbent: None };
    let stalled = Arc::new(AtomicBool::new(false));

    // Heartbeat thread: liveness only, on its own clock, so a long LP
    // solve never reads as a stall. It exits when the stall chaos flag
    // fires (that is the fault being simulated) or when writes fail
    // (coordinator gone — the main loop will notice on its next read).
    let hb_writer = Arc::clone(writer);
    let hb_stalled = Arc::clone(&stalled);
    let interval = Duration::from_millis(hello.knobs.heartbeat_millis.max(1));
    let hb = std::thread::spawn(move || {
        let seq = AtomicU64::new(0);
        loop {
            std::thread::sleep(interval);
            if hb_stalled.load(Ordering::Acquire) {
                return;
            }
            let frame = Frame::Heartbeat { seq: seq.fetch_add(1, Ordering::Relaxed) };
            let mut w = lock_recover(&hb_writer);
            if write_frame(&mut *w, &frame).is_err() {
                return;
            }
        }
    });

    let result = loop {
        match read_frame(reader) {
            Ok(Frame::Assign { epoch, iteration, scenario, col, chain }) => {
                let it = iteration as usize;
                let q = scenario as usize;
                if q >= nq {
                    break Err(DistError::Protocol(format!("assign for unknown scenario {q}")));
                }
                // Chaos: process death / whole-process hang, armed via env.
                killpoints::maybe_fire_proc_exit(it, q);
                if killpoints::fire_heartbeat_stall(it) {
                    stalled.store(true, Ordering::Release);
                    eprintln!("chaos kill-point: worker heartbeat stall at iteration {it}");
                    loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                }
                let outcome =
                    handle_assign(&slots, &ctx, &mut scratch, slot_id, it, q, &col, &chain);
                let frame = Frame::Result { epoch, iteration, scenario, outcome };
                let mut bytes = encode_frame(&frame);
                // Chaos: flip a checksum byte so the coordinator's frame
                // validation (not its TCP stack) has to catch it.
                if killpoints::fire_frame_corrupt(it, q) {
                    eprintln!("chaos kill-point: corrupting result frame at iteration {it}");
                    bytes[20] ^= 0xff;
                }
                let mut w = lock_recover(writer);
                if let Err(e) = write_frame_bytes(&mut *w, &bytes) {
                    break Err(DistError::Io(format!("send result: {e}")));
                }
            }
            Ok(Frame::Retire { scenario }) => {
                if let Some(s) = slots.get(scenario as usize) {
                    let mut s = lock_recover(s);
                    s.tmpl = None;
                    s.history.clear();
                }
            }
            Ok(Frame::IterSync { iteration, cuts, penalty, z: _ }) => {
                for (q, cut) in cuts {
                    if let Some(qcuts) = view.cuts.get_mut(q as usize) {
                        qcuts.push(cut);
                    }
                }
                view.incumbent = Some((iteration as usize, penalty));
            }
            Ok(Frame::Shutdown) => break Ok(()),
            Ok(Frame::Heartbeat { .. }) => {}
            Ok(other) => {
                break Err(DistError::Protocol(format!(
                    "unexpected {} frame after handshake",
                    frame_name(&other)
                )))
            }
            // EOF / reset: the coordinator is gone. That is a normal way
            // for a worker's life to end.
            Err(FrameReadError::Io(_)) => break Ok(()),
            Err(FrameReadError::Corrupt(e)) => break Err(DistError::Protocol(e.to_string())),
        }
    };
    stalled.store(true, Ordering::Release);
    let _ = hb.join();
    result
}

/// Reconcile the slot against the coordinator's chain, then solve.
#[allow(clippy::too_many_arguments)]
fn handle_assign(
    slots: &[Mutex<Slot>],
    ctx: &PoolCtx<'_>,
    scratch: &mut SolveScratch,
    slot_id: usize,
    it: usize,
    q: usize,
    col: &[bool],
    chain: &[Vec<bool>],
) -> Outcome {
    let diverged = {
        let s = lock_recover(&slots[q]);
        s.history != chain
    };
    if diverged {
        {
            let mut s = lock_recover(&slots[q]);
            s.tmpl = None;
            s.history.clear();
        }
        // Replay the authoritative chain through a fresh template — the
        // same re-warm `decompose_resume` performs — so warm state after
        // a death, reassignment, or eviction is bit-identical to the
        // uninterrupted in-process pool. A replay failure quarantines the
        // slot and the solve below simply runs cold (chain_reset tells
        // the coordinator its mirror must restart).
        for c in chain {
            if solve_contained(slots, ctx, 0, q, c, slot_id, scratch).is_err() {
                let mut s = lock_recover(&slots[q]);
                s.tmpl = None;
                s.history.clear();
                break;
            }
        }
    }
    match solve_contained(slots, ctx, it, q, col, slot_id, scratch) {
        Ok((sol, stats)) => {
            let chain_reset = lock_recover(&slots[q]).history.len() == 1;
            Outcome::Solved {
                value: sol.value,
                alpha: sol.alpha,
                loss: sol.loss,
                cut: sol.cut,
                warm_hit: stats.warm_hit,
                dual_restart: stats.dual_restart,
                lp_iterations: stats.iterations as u64,
                watchdog_restart: stats.watchdog_restart,
                chain_reset,
            }
        }
        Err(PoolError::ScenarioPoisoned { attempts, message, .. }) => {
            Outcome::Poisoned { attempts, message }
        }
        Err(e) => Outcome::Failed { message: e.to_string() },
    }
}
