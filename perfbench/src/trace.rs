//! In-memory span recording for the traced run. Spans are kept in memory
//! while ops run and written out once, when the run ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The parent id of an op's root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call: name, start, end and the span that caused it. Spans of
/// one op share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The op this span belongs to.
    pub op: u32,
    /// Unique span id.
    pub id: u32,
    /// The causing span's id, or [`NO_PARENT`].
    pub parent: u32,
    /// Layer call name (`module.call`).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span's identity.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The span's id, to parent other spans on.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Records spans for a sequence of ops.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u32,
    next_id: u32,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            next_id: 0,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The epoch, for recording spans on other threads.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Starts a new op; later spans carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    /// The current op id.
    pub fn op(&self) -> u32 {
        self.op
    }

    /// Reserves `n` consecutive span ids and returns the first.
    pub fn reserve_ids(&mut self, n: usize) -> u32 {
        let first = self.next_id;
        self.next_id += u32::try_from(n).expect("span ids fit in u32");
        first
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: u32) -> Open {
        let id = self.reserve_ids(1);
        Open {
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, open: Open) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, parent);
        let r = f();
        self.close(open);
        r
    }

    /// Adds spans recorded elsewhere (on replay worker threads).
    pub fn extend(&mut self, spans: impl IntoIterator<Item = Span>) {
        self.spans.extend(spans);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines: `header`, then one
    /// `[op, id, parent, name, start_ns, end_ns]` array per span (parent
    /// -1 for an op's root).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn write(&self, path: &Path, header: &serde_json::Value) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{}",
            serde_json::to_string(header).map_err(std::io::Error::other)?
        )?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "[{},{},{},\"{}\",{},{}]",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
