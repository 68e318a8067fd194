//! An in-memory span recorder kept in the benchmark's own files, and the
//! `TierStore` wrapper that times the tier layer through it.
//!
//! A span is a name, a start and end on the host clock, the span open
//! around it (its parent) and the request it served. Spans stay in
//! memory until the run ends and are then written out as JSON lines.
//! Nothing here is compiled into the program under test: spans bracket
//! calls into its public API from outside.

use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use pade_tier::{ChunkRecord, TierStore};

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `session.admit`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span served, if it served one.
    pub request: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
struct State {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

impl State {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A span recorder shared by clone. A disabled recorder runs the timed
/// closures and records nothing, without reading the clock, so the
/// same replay code measures both the traced and the untraced cost.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Arc<Mutex<State>>>);

impl Recorder {
    /// A recorder that keeps spans.
    #[must_use]
    pub fn enabled() -> Self {
        Self(Some(Arc::new(Mutex::new(State {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))))
    }

    /// A recorder that keeps nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self(None)
    }

    fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
        state.lock().expect("no span closure panics while holding the recorder lock")
    }

    /// Runs `f` inside a span named `name`, nested in whichever span is
    /// open. The lock is not held while `f` runs, so `f` may record
    /// spans of its own.
    pub fn span<R>(&self, name: &'static str, request: Option<usize>, f: impl FnOnce() -> R) -> R {
        let Some(state) = &self.0 else { return f() };
        let index = {
            let mut s = Self::lock(state);
            let start_ns = s.now_ns();
            let parent = s.open.last().copied();
            s.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
            let index = s.spans.len() - 1;
            s.open.push(index);
            index
        };
        let out = f();
        let mut s = Self::lock(state);
        let end_ns = s.now_ns();
        s.spans[index].end_ns = end_ns;
        let closed = s.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost first");
        out
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |state| Self::lock(state).spans.len())
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans recorded from index `mark` on, in start order.
    #[must_use]
    pub fn spans_since(&self, mark: usize) -> Vec<Span> {
        self.0.as_ref().map(|state| Self::lock(state).spans[mark..].to_vec()).unwrap_or_default()
    }
}

/// Writes `spans` as JSON lines: name, start, end, parent and request.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
             \"request\": {}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.request)
        )?;
    }
    out.flush()
}

/// A `TierStore` that forwards to the real store and records every
/// `put` and `get` as a `tier.put` / `tier.get` span. Stored content and
/// return values pass through untouched.
#[derive(Debug)]
pub struct TimedTier {
    inner: Box<dyn TierStore>,
    recorder: Recorder,
}

impl TimedTier {
    /// Wraps `inner`, recording into `recorder`.
    #[must_use]
    pub fn new(inner: Box<dyn TierStore>, recorder: Recorder) -> Self {
        Self { inner, recorder }
    }
}

impl TierStore for TimedTier {
    fn put(&mut self, record: &ChunkRecord) -> io::Result<()> {
        let inner = &mut self.inner;
        self.recorder.span("tier.put", None, || inner.put(record))
    }

    fn get(&self, key: u128) -> io::Result<Option<ChunkRecord>> {
        self.recorder.span("tier.get", None, || self.inner.get(key))
    }

    fn remove(&mut self, key: u128) -> io::Result<bool> {
        self.inner.remove(key)
    }

    fn contains(&self, key: u128) -> bool {
        self.inner.contains(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn spilled_bytes(&self) -> u64 {
        self.inner.spilled_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let rec = Recorder::enabled();
        rec.span("outer", Some(3), || rec.span("inner", None, || ()));
        let spans = rec.spans_since(0);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].request), ("outer", None, Some(3)));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn a_disabled_recorder_runs_the_closure_and_keeps_nothing() {
        let rec = Recorder::disabled();
        assert_eq!(rec.span("x", None, || 7), 7);
        assert!(rec.is_empty());
    }
}
