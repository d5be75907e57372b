//! The benchmark's own span recorder: one span around every call the
//! harness makes into a layer, kept in memory, written out at exit.
//!
//! A span is named after the layer it enters (`uruntime.functional`,
//! `uexec`, `ukernels.gemm_q8`, ...). A layer's *self time* within an op is
//! the time during which it is the deepest layer active: its spans minus
//! whatever their children cover, with children that overlap each other
//! (the two pools of a cooperative layer) counted once. Self times of one
//! op therefore add up to the op's wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer entered.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
    /// Display track (0 = calling thread, 1 = CPU pool, 2 = GPU pool).
    pub track: u8,
    /// True when start/end were laid out from measured durations rather
    /// than read off the clock (per-node and per-part spans, which the
    /// program reports as durations only).
    pub reconstructed: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. A recorder made with [`Recorder::off`] records
/// nothing, so untraced runs pay one branch per call.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle returned by [`Recorder::enter`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

impl Recorder {
    /// A recording recorder.
    pub fn on() -> Recorder {
        Recorder {
            on: true,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder that drops everything.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::on()
        }
    }

    /// Whether spans are kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans recorded from here on belong to op `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span on the calling thread, child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
            track: 0,
            reconstructed: false,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes the span `id` (and any span still open inside it).
    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Adds a closed child of `parent` laid out from a measured duration:
    /// it starts `offset_ns` into the parent and is clipped to it.
    pub fn child(
        &mut self,
        parent: SpanId,
        name: &'static str,
        offset_ns: u64,
        dur_ns: u64,
        track: u8,
    ) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let p = &self.spans[parent.0];
        let start_ns = (p.start_ns + offset_ns).min(p.end_ns);
        let end_ns = (start_ns + dur_ns).min(p.end_ns);
        let op = p.op;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent.0),
            op,
            track,
            reconstructed: true,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Everything recorded.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per layer name, in nanoseconds, within each root span of
/// `spans` (one root per op), in root order. Each instant inside a root is
/// given to the deepest span active at it; ties go to the later span.
pub fn self_times_by_root(spans: &[Span]) -> Vec<BTreeMap<&'static str, u64>> {
    let depth: Vec<usize> = (0..spans.len())
        .map(|mut i| {
            let mut d = 0;
            while let Some(p) = spans[i].parent {
                d += 1;
                i = p;
            }
            d
        })
        .collect();
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => kids[p].push(i),
            None => roots.push(i),
        }
    }
    roots
        .into_iter()
        .map(|root| {
            let mut tree = vec![root];
            let mut next = 0;
            while next < tree.len() {
                tree.extend_from_slice(&kids[tree[next]]);
                next += 1;
            }
            let mut cuts: Vec<u64> = tree
                .iter()
                .flat_map(|&i| [spans[i].start_ns, spans[i].end_ns])
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut selves: BTreeMap<&'static str, u64> = BTreeMap::new();
            for w in cuts.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let deepest = tree
                    .iter()
                    .filter(|&&i| spans[i].start_ns <= lo && hi <= spans[i].end_ns)
                    .max_by_key(|&&i| (depth[i], i));
                if let Some(&i) = deepest {
                    *selves.entry(spans[i].name).or_default() += hi - lo;
                }
            }
            selves
        })
        .collect()
}

/// Self time per layer name over all of `spans`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for selves in self_times_by_root(spans) {
        for (name, ns) in selves {
            *out.entry(name).or_default() += ns;
        }
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of `spans`.
pub fn chrome_trace_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (tid, name) in ["caller", "cpu-pool", "gpu-pool"].iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}},"
        );
    }
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{workload}\"}}}}"
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"reconstructed\":{}}}}}",
            s.track,
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op,
            s.reconstructed
        );
    }
    out.push_str("\n]}\n");
    out
}
