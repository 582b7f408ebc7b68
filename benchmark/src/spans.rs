//! The benchmark's own timers: an in-memory span recorder.
//!
//! Every call the benchmark makes into a layer of the program runs inside a
//! span, so the same record serves the end-to-end numbers (sums of spans)
//! and the per-layer ones (self time and work per layer). Spans stay in
//! memory and are written out only by a traced run, at its end.

use std::time::Instant;

use arl_stats::Json;

/// Work a span did, counted where it happened.
#[derive(Clone, Copy, Default, Debug)]
pub struct Work {
    /// Simulated instructions executed, captured, decoded or replayed.
    pub inst: u64,
    /// Bytes produced, written or read.
    pub bytes: u64,
    /// Simulated cycles (timing replays only).
    pub cycles: u64,
}

impl Work {
    /// Work counted in instructions.
    pub fn inst(inst: u64) -> Work {
        Work {
            inst,
            ..Work::default()
        }
    }

    /// Work counted in bytes.
    pub fn bytes(bytes: u64) -> Work {
        Work {
            bytes,
            ..Work::default()
        }
    }
}

/// One closed (or, after a panic, force-closed) interval.
#[derive(Debug)]
pub struct Span {
    /// Layer boundary the span wraps (`trace.decode`, `timing.replay`, ...).
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the root span this one belongs to (see [`Spans::op_key`]).
    pub op: usize,
    /// Work done inside the span.
    pub work: Work,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The recorder. Spans nest strictly: each `begin` is closed by the matching
/// `end` before its parent is.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: Vec<String>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. A span opened with none open starts a new op, labelled
    /// `key`; nested spans inherit their parent's op and ignore `key`.
    pub fn begin(&mut self, name: &'static str, key: &str) -> usize {
        let parent = self.open.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.ops.push(key.to_string());
                self.ops.len() - 1
            }
        };
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            work: Work::default(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, first closing any span still open inside it (a
    /// panic unwound past their `end`).
    pub fn end(&mut self, id: usize, work: Work) {
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = self.now_ns();
            if top == id {
                break;
            }
        }
        self.spans[id].work = work;
    }

    /// Runs `f` inside a span; `f` reports the work it did.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, Work)) -> T {
        let id = self.begin(name, name);
        let (value, work) = f();
        self.end(id, work);
        value
    }

    /// Every span recorded so far, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// The label of op `op`.
    pub fn op_key(&self, op: usize) -> &str {
        &self.ops[op]
    }

    /// Self time of every span, in seconds: its duration minus the part its
    /// child spans cover.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.secs();
            }
        }
        own
    }

    /// The spans as a JSON array (the traced run's span file).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        ("op", Json::from(s.op)),
                        ("op_key", Json::from(self.op_key(s.op))),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("inst", Json::from(s.work.inst)),
                        ("bytes", Json::from(s.work.bytes)),
                        ("cycles", Json::from(s.work.cycles)),
                    ])
                })
                .collect(),
        )
    }
}

/// Host nanoseconds one `begin`/`end` pair costs, measured on a throwaway
/// recorder; multiplied by a run's span count it gives the tracing overhead.
pub fn cost_per_span_ns() -> f64 {
    const N: usize = 20_000;
    let mut probe = Spans::new();
    let start = Instant::now();
    for _ in 0..N {
        let id = probe.begin("bench.op", "");
        probe.end(id, Work::default());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}
