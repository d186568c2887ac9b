//! Integration tests for the telemetry sink: enable/disable semantics,
//! multi-thread merge, histogram cross-check against the exact
//! order-statistic percentiles in `flexile-metrics`, exporter
//! well-formedness (Chrome trace parsed by a hand-rolled JSON reader) and
//! the flight recorder's last-N ring.
//!
//! The sink is process-global, so every test that enables/drains it runs
//! under one mutex; `cargo test` parallelism within this binary is safe.

use std::sync::Mutex;

static SINK: Mutex<()> = Mutex::new(());

/// Grab the global-sink lock and start from a clean slate.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    flexile_obs::disable();
    let _ = flexile_obs::drain();
    guard
}

#[test]
fn disabled_sink_records_nothing() {
    let _g = exclusive();
    {
        let mut s = flexile_obs::span("t.span", "test").field("k", 1u64);
        s.set("k2", 2u64);
        flexile_obs::event("t.instant", "test").field("x", true);
        flexile_obs::add("t.counter", 7);
        flexile_obs::observe("t.hist", 3.0);
    }
    let t = flexile_obs::drain();
    assert!(t.is_empty(), "disabled sink must stay empty: {t:?}");
}

#[test]
fn span_counter_histogram_roundtrip() {
    let _g = exclusive();
    flexile_obs::enable();
    {
        let mut s = flexile_obs::span("t.work", "test").field("size", 10u64);
        flexile_obs::add("t.items", 3);
        flexile_obs::add("t.items", 4);
        flexile_obs::observe("t.lat", 100.0);
        flexile_obs::observe("t.lat", 200.0);
        s.set("outcome", "ok");
    }
    flexile_obs::event("t.mark", "test").field("v", -5i64);
    flexile_obs::disable();
    let t = flexile_obs::drain();

    assert_eq!(t.counters["t.items"], 7);
    assert_eq!(t.hists["t.lat"].count(), 2);
    assert!((t.hists["t.lat"].mean() - 150.0).abs() < 1e-9);

    let span = t.events_named("t.work").next().expect("span recorded");
    assert_eq!(span.kind, flexile_obs::EventKind::Span);
    assert_eq!(span.num_field("size"), Some(10.0));
    assert_eq!(
        span.field("outcome"),
        Some(&flexile_obs::Value::Str("ok".to_string()))
    );
    let mark = t.events_named("t.mark").next().expect("instant recorded");
    assert_eq!(mark.kind, flexile_obs::EventKind::Instant);
    assert_eq!(mark.num_field("v"), Some(-5.0));

    // Drained means gone.
    assert!(flexile_obs::drain().is_empty());
}

#[test]
fn threads_merge_at_drain() {
    let _g = exclusive();
    flexile_obs::enable();
    std::thread::scope(|scope| {
        for i in 0..4 {
            scope.spawn(move || {
                let _s = flexile_obs::span("t.worker", "test").field("worker", i as u64);
                flexile_obs::add("t.thread_items", 10);
                flexile_obs::observe("t.thread_lat", (i + 1) as f64);
            });
        }
    });
    flexile_obs::add("t.thread_items", 2);
    flexile_obs::disable();
    let t = flexile_obs::drain();

    // Worker threads have exited; their buffers must still be merged.
    assert_eq!(t.counters["t.thread_items"], 42);
    assert_eq!(t.hists["t.thread_lat"].count(), 4);
    assert_eq!(t.events_named("t.worker").count(), 4);
    // Events are sorted by timestamp.
    assert!(t.events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
}

/// Cross-check histogram quantiles against `flexile_metrics::flow_loss` on
/// a shared fixture: a uniform-probability loss matrix makes `flow_loss`
/// the exact order statistic, and the log-histogram must agree to within
/// its documented bucket quantization error (≈9% relative).
#[test]
fn histogram_quantiles_match_metrics_percentiles() {
    let _g = exclusive();
    // Deterministic skewed fixture in (0, 1], like loss fractions.
    let n = 2000usize;
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let u = (i as f64 + 0.5) / n as f64;
            u * u // quadratic skew toward small losses
        })
        .collect();

    let m = flexile_metrics::LossMatrix::new(
        vec![samples.clone()],
        vec![1.0 / n as f64; n],
        0.0,
    );
    let mut h = flexile_obs::LogHistogram::new();
    for &v in &samples {
        h.record(v);
    }

    for beta in [0.10, 0.50, 0.90, 0.95, 0.99] {
        let exact = flexile_metrics::flow_loss(&m, 0, beta);
        let approx = h.quantile(beta);
        assert!(
            (approx / exact - 1.0).abs() < 0.10,
            "beta={beta}: hist {approx} vs flow_loss {exact}"
        );
    }
    // Extremes are exact because quantile() clamps to recorded min/max.
    assert_eq!(h.quantile(1.0), flexile_metrics::flow_loss(&m, 0, 1.0));
}

// ---------------------------------------------------------------------------
// A minimal JSON reader: enough to validate exporter well-formedness
// without a serde dependency. Parses objects/arrays/strings/numbers/
// bools/null into a tree.
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { s: s.as_bytes(), i: 0 }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && (self.s[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        assert!(self.i < self.s.len(), "unexpected end of JSON");
        self.s[self.i]
    }

    fn eat(&mut self, c: u8) {
        assert_eq!(self.peek(), c, "expected {:?} at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        self.ws();
        assert!(self.s[self.i..].starts_with(word.as_bytes()), "bad literal at {}", self.i);
        self.i += word.len();
        v
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut kv = Vec::new();
        if self.peek() == b'}' {
            self.i += 1;
            return Json::Obj(kv);
        }
        loop {
            let k = self.string();
            self.eat(b':');
            kv.push((k, self.value()));
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                c => panic!("expected , or }} got {:?}", c as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut v = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return Json::Arr(v);
        }
        loop {
            v.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(v);
                }
                c => panic!("expected , or ] got {:?}", c as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            assert!(self.i < self.s.len(), "unterminated string");
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let esc = self.s[self.i];
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            let cp = u32::from_str_radix(hex, 16).unwrap();
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        _ => panic!("bad escape \\{}", esc as char),
                    }
                }
                _ => {
                    // Re-decode UTF-8 starting at c.
                    let start = self.i - 1;
                    let width = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    out.push_str(std::str::from_utf8(&self.s[start..start + width]).unwrap());
                    self.i = start + width;
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        self.ws();
        let start = self.i;
        while self.i < self.s.len()
            && matches!(self.s[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.i += 1;
        }
        let txt = std::str::from_utf8(&self.s[start..self.i]).unwrap();
        Json::Num(txt.parse().unwrap_or_else(|_| panic!("bad number {txt:?}")))
    }

    fn parse(mut self) -> Json {
        let v = self.value();
        self.ws();
        assert_eq!(self.i, self.s.len(), "trailing bytes after JSON value");
        v
    }
}

fn parse_json(s: &str) -> Json {
    Parser::new(s).parse()
}

#[test]
fn chrome_trace_is_well_formed() {
    let _g = exclusive();
    flexile_obs::enable();
    {
        let _s = flexile_obs::span("t.outer", "test")
            .field("label", "with \"quotes\" and \\slashes\\\nnewline")
            .field("nan_field", f64::NAN)
            .field("count", 12u64);
        flexile_obs::event("t.tick", "test").field("ok", true);
    }
    flexile_obs::disable();
    let t = flexile_obs::drain();

    let trace = parse_json(&t.to_chrome_trace());
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert_eq!(events.len(), 2);
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
        assert!(e.get("name").is_some() && e.get("ts").is_some());
        assert!(e.get("pid").is_some() && e.get("tid").is_some());
        if ph == "X" {
            assert!(e.get("dur").is_some(), "complete events need dur");
        }
    }
    let outer = events
        .iter()
        .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("t.outer"))
        .expect("t.outer present");
    let args = outer.get("args").expect("args");
    assert_eq!(
        args.get("label").and_then(|v| v.as_str()),
        Some("with \"quotes\" and \\slashes\\\nnewline"),
        "escaping must round-trip"
    );
    assert_eq!(args.get("nan_field"), Some(&Json::Null), "NaN exports as null");
}

#[test]
fn jsonl_lines_each_parse_and_follow_schema() {
    let _g = exclusive();
    flexile_obs::enable();
    {
        let _s = flexile_obs::span("t.op", "test").field("n", 3u64);
        flexile_obs::add("t.count", 5);
        flexile_obs::observe("t.dist", 7.5);
    }
    flexile_obs::disable();
    let t = flexile_obs::drain();

    let jsonl = t.to_jsonl();
    let mut types = std::collections::BTreeSet::new();
    for line in jsonl.lines() {
        let obj = parse_json(line);
        let ty = obj.get("type").and_then(|v| v.as_str()).expect("type field");
        types.insert(ty.to_string());
        match ty {
            "event" => {
                for key in ["name", "cat", "kind", "ts_us", "dur_us", "tid", "fields"] {
                    assert!(obj.get(key).is_some(), "event missing {key}: {line}");
                }
            }
            "counter" => {
                assert!(obj.get("name").is_some() && obj.get("value").is_some());
            }
            "hist" => {
                for key in ["name", "count", "sum", "min", "max", "p50", "p90", "p99", "buckets"] {
                    assert!(obj.get(key).is_some(), "hist missing {key}: {line}");
                }
            }
            other => panic!("unknown line type {other}"),
        }
    }
    assert_eq!(
        types.into_iter().collect::<Vec<_>>(),
        ["counter", "event", "hist"],
        "all three line types present"
    );
}

#[test]
fn summary_table_mentions_everything() {
    let _g = exclusive();
    flexile_obs::enable();
    {
        let _s = flexile_obs::span("t.step", "test");
        flexile_obs::add("t.total", 9);
        flexile_obs::observe("t.ms", 1.25);
    }
    flexile_obs::disable();
    let t = flexile_obs::drain();
    let s = t.summary();
    assert!(s.contains("t.step") && s.contains("t.total") && s.contains("t.ms"), "{s}");
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
