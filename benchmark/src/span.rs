//! In-memory spans around the harness's calls into each layer, written
//! out as chrome trace-event JSON when the traced run ends.
//!
//! The harness is single-threaded, so "the span that caused it" is the
//! innermost span still open when a new one starts.

use crate::alloc;
use crate::child::self_cpu_secs;
use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Counts recorded at the same boundary (packets, flows, bytes,
    /// allocations).
    pub counts: Vec<(String, f64)>,
}

/// What [`Tracer::timed`] measured around one layer call.
#[derive(Debug)]
pub struct Timed<T> {
    pub out: T,
    pub secs: f64,
    /// Process CPU (all threads) used during the call.
    pub cpu_secs: f64,
    /// Allocator calls made by the whole process during the call; exact
    /// when the call is single-threaded. Zero with tracing off.
    pub allocs: u64,
}

impl<T, E> Timed<Result<T, E>> {
    /// Moves the call's error out in front of its measurements.
    pub fn transpose(self) -> Result<Timed<T>, E> {
        let Timed {
            out,
            secs,
            cpu_secs,
            allocs,
        } = self;
        out.map(|out| Timed {
            out,
            secs,
            cpu_secs,
            allocs,
        })
    }
}

#[derive(Debug)]
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Off = time the call but record no span and count no allocation;
    /// `bench.trace_overhead_pct` is the difference.
    pub enabled: bool,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn count(&mut self, id: usize, key: &str, value: f64) {
        self.spans[id].counts.push((key.to_string(), value));
    }

    /// Runs one layer call inside a leaf span, counting its allocations.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> Timed<T> {
        if !self.enabled {
            let cpu = self_cpu_secs();
            let t = Instant::now();
            let out = f();
            return Timed {
                out,
                secs: t.elapsed().as_secs_f64(),
                cpu_secs: self_cpu_secs() - cpu,
                allocs: 0,
            };
        }
        let id = self.enter(name);
        let cpu = self_cpu_secs();
        let (out, allocs) = alloc::count(f);
        let cpu_secs = self_cpu_secs() - cpu;
        self.exit(id);
        self.count(id, "allocs", allocs as f64);
        self.count(id, "cpu_us", cpu_secs * 1e6);
        let s = &self.spans[id];
        Timed {
            out,
            secs: (s.end_ns - s.start_ns) as f64 / 1e9,
            cpu_secs,
            allocs,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` minus the part of it its direct children
    /// cover (overlapping children are counted once).
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut edge = s.start_ns;
        for (a, b) in kids {
            let a = a.max(edge);
            if b > a {
                covered += b - a;
                edge = b;
            }
        }
        (s.end_ns - s.start_ns) - covered
    }

    /// Chrome trace-event JSON (`chrome://tracing`, ui.perfetto.dev):
    /// one complete (`"ph":"X"`) event per span, times in microseconds.
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("workload".to_string(), Json::Str(self.workload.clone())),
                    ("id".to_string(), Json::Num(id as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    (
                        "self_us".to_string(),
                        Json::Num(self.self_time_ns(id) as f64 / 1e3),
                    ),
                ];
                args.extend(s.counts.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
                Json::obj_from([
                    ("name".to_string(), Json::Str(s.name.clone())),
                    ("cat".to_string(), Json::Str(self.workload.clone())),
                    ("ph".to_string(), Json::Str("X".into())),
                    ("ts".to_string(), Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".to_string(),
                        Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".to_string(), Json::Num(1.0)),
                    ("tid".to_string(), Json::Num(1.0)),
                    ("args".to_string(), Json::obj_from(args)),
                ])
            })
            .collect();
        Json::obj_from([
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::Str("ms".into())),
        ])
        .render()
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut t = Tracer::new("w");
        let root = t.push_raw("workload", 0, 1_000, None);
        let phase = t.push_raw("phase", 100, 900, Some(root));
        let a = t.push_raw("layer.a", 100, 300, Some(phase));
        let b = t.push_raw("layer.b", 400, 700, Some(phase));
        let inner = t.push_raw("layer.b.inner", 450, 500, Some(b));
        assert_eq!(t.self_time_ns(root), 200); // only `phase` is a direct child
        assert_eq!(t.self_time_ns(phase), 800 - 200 - 300);
        assert_eq!(t.self_time_ns(a), 200);
        assert_eq!(t.self_time_ns(b), 250);
        assert_eq!(t.self_time_ns(inner), 50);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let mut t = Tracer::new("w");
        let root = t.push_raw("root", 0, 100, None);
        t.push_raw("x", 10, 60, Some(root));
        t.push_raw("y", 40, 80, Some(root));
        assert_eq!(t.self_time_ns(root), 30);
    }

    #[test]
    fn enter_exit_links_parents_and_exports_chrome_events() {
        let mut t = Tracer::new("web_short");
        let root = t.enter("workload");
        let leaf = t.timed("core.accumulate", || 7);
        assert_eq!(leaf.out, 7);
        t.count(root, "packets", 3.0);
        t.exit(root);
        assert_eq!(t.spans()[1].parent, Some(root));
        let doc = Json::parse(&t.chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").unwrap().str(),
            Some("core.accumulate")
        );
        assert_eq!(events[1].get("ph").unwrap().str(), Some("X"));
        assert_eq!(
            events[0].get("args").unwrap().get("packets").unwrap().num(),
            Some(3.0)
        );
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut t = Tracer::new("w");
        t.enabled = false;
        let r = t.timed("x", || 1);
        assert_eq!((r.out, r.allocs), (1, 0));
        assert!(t.spans().is_empty());
    }
}
