//! The benchmark's own span recorder: one span around every call the
//! benchmark makes into a layer, kept in memory and written as JSONL
//! when the workload ends. Spans inside the program are a later change.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is the span that caused it; spans of one
/// operation share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory recorder. Spans nest by call order on the recording thread:
/// `enter` pushes, `exit` pops, so a child's parent is whatever span was
/// open when it began.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    op_id: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::with_epoch(Instant::now())
    }

    /// A recorder whose clock starts at `epoch`: recorders of several
    /// threads that share one can be merged with [`Recorder::absorb`].
    pub fn with_epoch(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new(), open: Vec::new(), op_id: 0 }
    }

    /// Appends the closed spans of `other`, renumbered.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(other.open.is_empty(), "absorbing a recorder with open spans");
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| SpanRecord {
            id: s.id + shift,
            parent: s.parent.map(|p| p + shift),
            ..s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `op_id`: `"op"` for a workload's
    /// op, another name for its second leg.
    pub fn begin_op(&mut self, op_id: u64, name: &'static str) -> usize {
        assert!(self.open.is_empty(), "an operation is still open");
        self.op_id = op_id;
        self.enter(name)
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(SpanRecord {
            id,
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-measured child of the innermost open span
    /// (timings a layer reports about itself, e.g. per-worker seconds).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            id,
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Durations in seconds of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON object per line, self time included.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"op_id\":{},\"self_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.op_id, self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping or adjacent children are
/// merged first, and clipped to the parent).
pub fn self_times_ns(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord { id, name: "s", start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_adjacent_and_overlapping_children() {
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 10, 30, Some(0)),  // child
            span(2, 30, 50, Some(0)),  // adjacent to 1
            span(3, 40, 60, Some(0)),  // overlaps 2 (parallel workers)
            span(4, 12, 20, Some(1)),  // grandchild: counts against 1 only
            span(5, 90, 120, Some(0)), // clipped to the parent's end
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - (50 + 10)); // [10,60) and [90,100)
        assert_eq!(selfs[1], 20 - 8);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[4], 8);
    }

    #[test]
    fn recorder_nests_by_call_order_and_tags_the_operation() {
        let mut rec = Recorder::new();
        let root = rec.begin_op(7, "op");
        rec.span("outer", || ());
        let outer = rec.spans().len() - 1;
        let inner = rec.enter("inner");
        rec.record("reported", 1, 2);
        rec.exit(inner);
        rec.exit(root);
        let s = rec.spans();
        assert_eq!(s[root].parent, None);
        assert_eq!(s[outer].parent, Some(root));
        assert_eq!(s[inner].parent, Some(root));
        assert_eq!(s[inner + 1].parent, Some(inner));
        assert!(s.iter().all(|x| x.op_id == 7));
        assert!(s[root].end_ns >= s[inner].end_ns);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let (mut a, mut b) = (Recorder::with_epoch(epoch), Recorder::with_epoch(epoch));
        for rec in [&mut a, &mut b] {
            let root = rec.begin_op(1, "op");
            rec.span("child", || ());
            rec.exit(root);
        }
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.iter().map(|x| x.id).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(s.iter().map(|x| x.parent).collect::<Vec<_>>(), [None, Some(0), None, Some(2)]);
    }
}
