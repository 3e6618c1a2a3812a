//! In-memory span recorder and the closed-loop meter.
//!
//! Spans are recorded from the benchmark's side of the API: one span per
//! public call (name, start, end, parent span, op id), kept in memory and
//! written out once at exit. A span's *self time* is its duration minus the
//! part of it that its child spans cover.
//!
//! Spans recorded during set-up are flagged as set-up spans and kept apart
//! from the timed loop's, and set-up calls add to no counter, so a layer a
//! workload calls only while setting up never shows in the loop's figures.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded public call.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<u32>,
    setup: bool,
    start_ns: u64,
    end_ns: u64,
}

/// Span and counter recorder. While disabled every method is a no-op
/// apart from running the wrapped call, so untraced blocks pay one branch.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    setup: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            setup: false,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Flags spans opened from now on as set-up spans (and ignores counts)
    /// while `on`.
    pub fn set_setup(&mut self, on: bool) {
        self.setup = on;
    }

    /// Tags spans opened from now on with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            setup: self.setup,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span. Tracing never toggles while a span
    /// is open, so `begin` and `end` always pair up.
    pub fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Adds `v` to counter `name` (traced blocks of the timed loop only).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled && !self.setup {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Counter total (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Per span name: (number of spans, total self time in ms), over the
    /// set-up spans (`setup`) or the timed loop's.
    pub fn self_times(&self, setup: bool) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if s.setup != setup {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            let e = out.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"setup\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.setup, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

/// Length of one traced or untraced block in a traced run. Blocks
/// alternate, so both halves see the same warm-up and cache growth.
const TRACE_BLOCK: Duration = Duration::from_millis(250);

/// Least untraced timed wall time per window.
const WINDOW: Duration = Duration::from_millis(500);

/// Least latency samples per window, so that a window's p99 has at least
/// ten samples beyond it.
const WINDOW_CALLS: usize = 1000;

/// One closed window: untraced timed wall, operations, the range of
/// latency samples taken in it, and the share of its real time that the
/// hypervisor took from the machine's processors.
struct Window {
    wall: Duration,
    ops: u64,
    lat: std::ops::Range<usize>,
    steal_share: f64,
}

/// The open window: untraced timed wall, operations, index of its first
/// latency sample, and the steal time (s) and instant of its first
/// untraced timed work.
struct OpenWindow {
    wall: Duration,
    ops: u64,
    first: usize,
    opened: Option<(f64, Instant)>,
}

impl OpenWindow {
    fn new(first: usize) -> OpenWindow {
        OpenWindow {
            wall: Duration::ZERO,
            ops: 0,
            first,
            opened: None,
        }
    }
}

/// Steal time so far (s), summed over the machine's processors: time in
/// which a virtual processor had work but the hypervisor ran something
/// else. 0 where `/proc/stat` has no steal column.
fn steal_s() -> f64 {
    // `/proc/stat` counts in USER_HZ ticks, which Linux fixes at 100 per
    // second for user space.
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.split_whitespace().collect::<Vec<_>>();
            cpu.get(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// Closed-loop meter: one caller, the next call issued when the previous
/// one returns. Only measured calls count toward the timed wall time, so
/// input generation and oracle checks between calls stay outside it.
pub struct Meter {
    budget: Duration,
    max_ops: u64,
    traced_run: bool,
    /// Timed wall time per block kind: [untraced, traced].
    wall: [Duration; 2],
    ops: [u64; 2],
    block: Duration,
    /// Per-call latencies in ms, from untraced blocks only.
    lat_ms: Vec<f64>,
    /// Closed windows of at least `WINDOW` untraced timed wall and
    /// `WINDOW_CALLS` latency samples.
    windows: Vec<Window>,
    window: OpenWindow,
    /// Set-up repetition times (s).
    setup_times: Vec<f64>,
    pub failed: u64,
    pub tracer: Tracer,
}

impl Meter {
    pub fn new(seconds: u64, max_ops: u64, traced_run: bool) -> Meter {
        let mut tracer = Tracer::new();
        tracer.set_enabled(traced_run);
        Meter {
            budget: Duration::from_secs(seconds),
            max_ops,
            traced_run,
            wall: [Duration::ZERO; 2],
            ops: [0; 2],
            block: Duration::ZERO,
            lat_ms: Vec::new(),
            windows: Vec::new(),
            window: OpenWindow::new(0),
            setup_times: Vec::new(),
            failed: 0,
            tracer,
        }
    }

    /// Times one set-up repetition, outside the timed wall. Its spans are
    /// set-up spans under a root `setup` span, and it adds to no counter.
    pub fn time_setup<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let t0 = Instant::now();
        self.tracer.set_setup(true);
        self.tracer.begin("setup");
        let out = f(&mut self.tracer);
        self.tracer.end();
        self.tracer.set_setup(false);
        self.setup_times.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Whether the next of `reps` set-up repetitions spread evenly over the
    /// run's timed wall (the first one before the loop) is due.
    pub fn setup_due(&self, reps: usize) -> bool {
        let n = self.setup_times.len();
        n < reps && self.wall() >= self.budget.mul_f64(n as f64 / reps as f64)
    }

    /// Set-up time (s): the median of the repetitions.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_times)
    }

    /// Set-up repetitions timed so far.
    pub fn setup_reps(&self) -> usize {
        self.setup_times.len()
    }

    /// Timed wall time so far, traced and untraced blocks together.
    pub fn wall(&self) -> Duration {
        self.wall[0] + self.wall[1]
    }

    /// Whether the loop should issue another call.
    pub fn more(&self) -> bool {
        self.wall() < self.budget && self.ops[0] + self.ops[1] < self.max_ops
    }

    pub fn ops(&self) -> u64 {
        self.ops[0] + self.ops[1]
    }

    /// Operations completed in traced blocks.
    pub fn traced_ops(&self) -> u64 {
        self.ops[1]
    }

    fn kind(&self) -> usize {
        usize::from(self.tracer.enabled())
    }

    /// Starts the open window's clock at its first untraced timed work, so
    /// set-up before the loop does not count toward its steal share.
    fn start_window(&mut self) {
        if self.window.opened.is_none() && self.kind() == 0 {
            self.window.opened = Some((steal_s(), Instant::now()));
        }
    }

    fn add_wall(&mut self, d: Duration, ops: u64) {
        let k = self.kind();
        self.wall[k] += d;
        self.ops[k] += ops;
        if k == 0 {
            self.window.wall += d;
            self.window.ops += ops;
        }
        self.block += d;
        if self.traced_run && self.block >= TRACE_BLOCK {
            self.block = Duration::ZERO;
            let on = !self.tracer.enabled();
            self.tracer.set_enabled(on);
        }
    }

    /// Times one call that completes `ops` operations; its latency is one
    /// sample.
    pub fn call<R>(&mut self, ops: u64, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let k = self.kind();
        self.start_window();
        self.tracer.set_op(self.ops[0] + self.ops[1]);
        let t0 = Instant::now();
        let out = f(&mut self.tracer);
        let d = t0.elapsed();
        let ms = d.as_secs_f64() * 1e3;
        if k == 0 {
            self.lat_ms.push(ms);
        }
        self.add_wall(d, ops);
        (out, ms)
    }

    /// Times work that belongs to the workload but is not an operation
    /// (per-epoch maintenance): it counts toward the wall time only.
    pub fn background<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.start_window();
        let t0 = Instant::now();
        let out = f(&mut self.tracer);
        self.add_wall(t0.elapsed(), 0);
        out
    }

    /// Operations per second of timed wall time, over untraced blocks
    /// (`kind` 0) or traced blocks (`kind` 1).
    pub fn throughput(&self, kind: usize) -> f64 {
        self.ops[kind] as f64 / self.wall[kind].as_secs_f64().max(1e-9)
    }

    /// Closes the current window once it holds at least `WINDOW` of
    /// untraced timed wall and `WINDOW_CALLS` latency samples. Workloads
    /// call this at the end of each pass over their input schedule, so
    /// every window holds whole passes with the same mix.
    pub fn end_pass(&mut self) {
        let end = self.lat_ms.len();
        let w = &self.window;
        if let (true, Some((steal0, t0))) = (
            w.wall >= WINDOW && end - w.first >= WINDOW_CALLS,
            w.opened,
        ) {
            let real = t0.elapsed().as_secs_f64().max(1e-9);
            self.windows.push(Window {
                wall: w.wall,
                ops: w.ops,
                lat: w.first..end,
                steal_share: (steal_s() - steal0).max(0.0) / real,
            });
            self.window = OpenWindow::new(end);
        }
    }

    /// Closed windows.
    pub fn windows(&self) -> usize {
        self.windows.len()
    }

    /// Latency samples taken in untraced blocks.
    pub fn latency_samples(&self) -> usize {
        self.lat_ms.len()
    }

    /// The windows the end-to-end figures come from: the quarter of the
    /// windows (at least three) with the least steal share, with every
    /// window tied with the last of them (so all of them when the
    /// hypervisor took nothing).
    ///
    /// The machine the benchmark was tuned on is a virtual machine on a
    /// shared host. In phases that last from seconds to minutes the host
    /// runs other tenants on its processors: the guest sees this as steal
    /// time, and calls stall for tens of milliseconds while it lasts. In
    /// windows with a steal share of 0.22 to 0.47, `spec-serve` ran at
    /// 0.40 to 0.65 times the throughput of its windows without steal and
    /// its p99 rose 1.6 to 4.6 times; even a share of 0.07 to 0.13 cost it
    /// 10-25% of its throughput. Which windows of a run such a phase
    /// covers differs from run to run. Steal is measured outside the
    /// program, and the program's code does not change how much time the
    /// host takes, so a slower change to the code is still slower in the
    /// windows kept. The host can also slow the machine without steal
    /// (by sharing caches or cores), which no window choice removes.
    fn clean_windows(&self) -> Vec<&Window> {
        let mut shares: Vec<f64> = self.windows.iter().map(|w| w.steal_share).collect();
        shares.sort_by(f64::total_cmp);
        let keep = shares.len().div_ceil(4).max(3).min(shares.len());
        let Some(&cut) = shares.get(keep.saturating_sub(1)) else {
            return Vec::new();
        };
        self.windows
            .iter()
            .filter(|w| w.steal_share <= cut)
            .collect()
    }

    /// Windows the end-to-end figures come from.
    pub fn clean_window_count(&self) -> usize {
        self.clean_windows().len()
    }

    /// Median over the closed windows of their steal share.
    pub fn steal_share(&self) -> f64 {
        median(&self.windows.iter().map(|w| w.steal_share).collect::<Vec<_>>())
    }

    /// Median over the clean windows of `f(wall, ops, latencies)`, or `f`
    /// of the whole run's untraced calls when no window closed. Unlike a
    /// figure pooled over the windows, a burst of slow calls in one window
    /// cannot move the median of the others.
    fn window_median(&self, f: impl Fn(Duration, u64, &[f64]) -> f64) -> f64 {
        if self.windows.is_empty() {
            return f(self.wall[0], self.ops[0], &self.lat_ms);
        }
        let per_window: Vec<f64> = self
            .clean_windows()
            .iter()
            .map(|w| f(w.wall, w.ops, &self.lat_ms[w.lat.clone()]))
            .collect();
        median(&per_window)
    }

    /// Untraced throughput (ops/s): the median over clean windows.
    pub fn steady_throughput(&self) -> f64 {
        self.window_median(|wall, ops, _| ops as f64 / wall.as_secs_f64().max(1e-9))
    }

    /// Untraced per-call latency percentile `q` (ms): the median over
    /// clean windows of each window's percentile.
    pub fn steady_latency(&self, q: f64) -> f64 {
        self.window_median(|_, _, lat| percentile(lat, q))
    }
}

/// Median of unsorted samples (the mean of the middle two for an even
/// count; 0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
