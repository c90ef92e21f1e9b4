//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into the
//! public functions of each layer; nothing inside the program under test is
//! instrumented. A span has a name (`layer.what`), a start and end, the
//! span that caused it, and the request/step id its whole tree shares.
//! Everything stays in memory until [`Tracer::write_chrome`] at exit.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request or step id shared by every span of one unit of work.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    /// Off for untraced runs: `span` then only calls its closure.
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing, for code shared with untraced runs.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` under a span named `name`, child of whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records an interval timed by the caller (for work whose boundaries
    /// are callbacks, such as the epochs of one `fit_epochs` call).
    pub fn span_between(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            id,
        });
    }

    /// Share of `wall` that went into recording this tracer's spans: their
    /// number × the cost of one span, measured here on empty spans. (The
    /// difference between a traced and an untraced timing of the same work
    /// is far below run-to-run noise, so it is computed, not subtracted.)
    pub fn overhead_share(&self, wall: Duration) -> f64 {
        const PROBES: u64 = 100_000;
        let mut probe = Tracer::new();
        let started = Instant::now();
        for i in 0..PROBES {
            probe.span("probe", i, |_| ());
        }
        let per_span = started.elapsed().as_secs_f64() / PROBES as f64;
        self.spans.len() as f64 * per_span / wall.as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let all = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Writes the Chrome trace-event format (`chrome://tracing`, Perfetto):
    /// one complete (`"ph":"X"`) event per span, microsecond timestamps.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                if i == 0 { "" } else { "," },
                json::quote(s.name),
                json::quote(s.name.split('.').next().unwrap_or(s.name)),
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.dur_ns() as f64 / 1e3),
                s.id,
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// A span's self time: its duration minus the part its children cover.
/// Spans of one tracer nest strictly (a child opens and closes inside its
/// parent, siblings never overlap), so the children's cover is their sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("step", 0, 100, None),
            span("forward", 10, 40, Some(0)),
            span("kernel", 15, 25, Some(1)),
            span("backward", 40, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 50]);
    }

    #[test]
    fn nesting_ids_and_parents_are_recorded() {
        let mut t = Tracer::new();
        let got = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| 5)
        });
        assert_eq!(got, 5);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|x| x.id == 7 && x.end_ns >= x.start_ns));
        assert!(s[1].end_ns <= s[2].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_ms("inner").len(), 2);
        assert_eq!(Tracer::off().span("unrecorded", 0, |t| t.spans().len()), 0);
        let (a, b) = (Instant::now(), Instant::now());
        t.span_between("timed-by-caller", 9, a, b);
        assert_eq!((t.spans()[3].parent, t.spans()[3].id), (None, 9));
        assert!(t.overhead_share(Duration::from_secs(1)) < 0.01);
        let own: f64 = t.self_ms("outer")[0];
        let inner: f64 = t.durations_ms("inner").iter().sum();
        assert!((own + inner - t.durations_ms("outer")[0]).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut t = Tracer::new();
        t.span("serve.http.recommend", 3, |t| {
            t.span("serve.engine.batch1", 3, |_| ())
        });
        let path = crate::report::out_dir().join(format!("test-trace-{}.json", std::process::id()));
        t.write_chrome(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v = json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(json::Value::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(json::Value::as_str),
            Some("serve.engine.batch1")
        );
        assert_eq!(
            events[1].get("cat").and_then(json::Value::as_str),
            Some("serve")
        );
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(json::Value::as_f64),
            Some(0.0)
        );
    }
}
