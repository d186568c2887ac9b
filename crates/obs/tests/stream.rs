//! Differential tests for the live event stream: a fully-consumed
//! subscriber reassembles bit-identically to `drain()` across thread
//! counts, drops are counted (never silently lost), and snapshots are
//! non-destructive.
//!
//! The sink is process-global, so every test runs under one mutex.

use std::sync::Mutex;

static SINK: Mutex<()> = Mutex::new(());

/// Grab the global-sink lock and start from a clean slate.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    flexile_obs::disable();
    let _ = flexile_obs::drain();
    guard
}

/// Record a deterministic workload from `threads` worker threads: spans
/// with fields, instant events, counters and histogram samples.
fn workload(threads: usize, events_per_thread: usize) {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..events_per_thread {
                    {
                        let mut s = flexile_obs::span("stream.work", "test")
                            .field("thread", t as u64)
                            .field("i", i as u64);
                        s.set("sq", (i * i) as u64);
                    }
                    flexile_obs::event("stream.mark", "test").field("odd", i % 2 == 1);
                    flexile_obs::add("stream.items", 1);
                    flexile_obs::observe("stream.size", i as f64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Core differential check: stream ≡ drain for a given thread count.
fn assert_stream_matches_drain(threads: usize) {
    let _g = exclusive();
    let sub = flexile_obs::stream::subscribe();
    flexile_obs::enable();
    workload(threads, 50);
    flexile_obs::disable();

    let mut streamed = sub.recv_all();
    let drained = flexile_obs::drain();

    assert_eq!(sub.dropped(), 0, "default capacity must not drop");
    assert_eq!(
        drained.counters.get("obs.dropped_events"),
        None,
        "no drops ⇒ no drop counter"
    );

    // drain() sorts by (ts_us, tid); the stream arrives in cross-thread
    // arrival order, so normalize the same way. The stable sort keeps
    // per-thread chronological order on both sides.
    streamed.sort_by_key(|e| (e.ts_us, e.tid));
    assert_eq!(
        streamed, drained.events,
        "stream must reassemble drain() exactly ({threads} threads)"
    );
    assert_eq!(drained.counters["stream.items"], (threads * 50) as u64);
}

#[test]
fn stream_matches_drain_single_thread() {
    assert_stream_matches_drain(1);
}

#[test]
fn stream_matches_drain_two_threads() {
    assert_stream_matches_drain(2);
}

#[test]
fn stream_matches_drain_eight_threads() {
    assert_stream_matches_drain(8);
}

#[test]
fn overflow_drops_are_counted_and_data_is_not_corrupted() {
    let _g = exclusive();
    let sub = flexile_obs::stream::subscribe_with_capacity(8);
    flexile_obs::enable();
    workload(2, 50); // 100 spans + 100 instants ≫ capacity 8
    flexile_obs::disable();

    let streamed = sub.recv_all();
    let drained = flexile_obs::drain();

    assert_eq!(streamed.len(), 8, "ring keeps exactly its capacity");
    assert!(sub.dropped() > 0, "overflow must be counted on the ring");
    assert_eq!(
        drained.counters["obs.dropped_events"],
        sub.dropped(),
        "global drop counter mirrors the ring's count"
    );
    // The sink itself is unaffected by stream overflow: every event is
    // still drained, and the delivered prefix is a prefix of the truth.
    assert_eq!(drained.events.len(), 200);
    for ev in &streamed {
        assert!(
            drained.events.contains(ev),
            "streamed event must exist in drain()"
        );
    }
}

#[test]
fn dropped_subscriber_detaches() {
    let _g = exclusive();
    assert!(!flexile_obs::stream::active());
    {
        let _sub = flexile_obs::stream::subscribe();
        assert!(flexile_obs::stream::active());
    }
    assert!(!flexile_obs::stream::active());

    // With no subscriber the record path must not count drops.
    flexile_obs::enable();
    flexile_obs::event("stream.orphan", "test").field("x", 1u64);
    flexile_obs::disable();
    let t = flexile_obs::drain();
    assert_eq!(t.counters.get("obs.dropped_events"), None);
    assert_eq!(t.events.len(), 1);
}

#[test]
fn snapshot_is_non_destructive_and_drain_still_sees_everything() {
    let _g = exclusive();
    let sub = flexile_obs::stream::subscribe();
    flexile_obs::enable();
    flexile_obs::add("snap.counter", 3);
    flexile_obs::observe("snap.hist", 10.0);
    flexile_obs::event("snap.ev", "test").field("k", 1u64);

    let s1 = sub.snapshot();
    let s2 = flexile_obs::snapshot();
    assert_eq!(s1.counters["snap.counter"], 3);
    assert_eq!(s2.counters["snap.counter"], 3, "snapshot must not consume");
    assert_eq!(s1.events.len(), 1);
    assert_eq!(s1.hists["snap.hist"].count(), 1);

    flexile_obs::add("snap.counter", 2);
    flexile_obs::disable();
    let t = flexile_obs::drain();
    assert_eq!(t.counters["snap.counter"], 5, "drain sees pre-snapshot data");
    assert_eq!(t.events.len(), 1);
    assert!(flexile_obs::drain().is_empty(), "drain cleared the sink");
    drop(sub);
}

#[test]
fn flight_ring_keeps_last_n_and_dump_is_jsonl() {
    let _g = exclusive();
    flexile_obs::flight::clear_last();
    let cap = flexile_obs::flight::capacity();
    assert!(cap > 0, "flight recorder is on by default");
    flexile_obs::enable();
    for i in 0..(cap + 25) {
        flexile_obs::event("flight.tick", "test").field("i", i as u64);
    }
    let dumped_path = flexile_obs::flight::dump("test_reason");
    flexile_obs::disable();
    let _ = flexile_obs::drain();

    assert!(dumped_path.is_none(), "no dump dir configured in tests");
    let dump = flexile_obs::flight::last().expect("dump retained in memory");
    let mut lines = dump.lines();
    let header = lines.next().unwrap();
    assert!(header.contains("\"type\":\"flight\""));
    assert!(header.contains("\"reason\":\"test_reason\""));
    // The dump merges every registered thread's ring. A previous test's
    // thread stays registered until its TLS destructor runs, which can
    // land after this test's drain, so its ring may ride along. Rings are
    // per-thread: check this thread's `flight.tick` events.
    let events: Vec<&str> =
        lines.filter(|l| l.contains("\"name\":\"flight.tick\"")).collect();
    assert_eq!(events.len(), cap, "ring holds exactly the last N events");
    // The ring holds the *last* N: the newest index must be present,
    // the oldest must have been evicted.
    assert!(events.iter().any(|l| l.contains(&format!("\"i\":{}", cap + 24))));
    assert!(!events.iter().any(|l| l.contains("\"i\":0,") || l.ends_with("\"i\":0}")));
    flexile_obs::flight::clear_last();
}
