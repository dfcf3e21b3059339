//! The host side of the benchmark: the simulating thread's clocks and
//! memory, and the benchmark-owned probes that time each layer from
//! outside — a [`Kernel`] wrapper around `execute`/`work` and a future
//! wrapper around the benchmark's own client tasks.
//!
//! Everything here reads ambient state (wall clock, `/proc`) on purpose:
//! it measures what the simulator costs, never what it simulates. No
//! value read here feeds back into a simulation.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::io::Write;
use std::path::Path;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant; // audit:allow(ambient): the benchmark measures host time

use kaas_accel::{DeviceClass, WorkUnits};
use kaas_kernels::{Kernel, KernelError, Value, Warmup};

/// On-CPU nanoseconds of the calling thread so far, from
/// `/proc/thread-self/schedstat` (first field). The kernel refreshes it
/// at scheduler ticks, so it resolves phases of a second or more well
/// and short phases poorly; short phases use [`Stopwatch`] instead.
pub fn thread_cpu_ns() -> u64 {
    // Ambient read: the simulating thread's on-CPU time.
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with on-CPU nanoseconds")
}

/// A `/proc/self/status` memory field in kB (`VmRSS`, `VmHWM`).
pub fn status_kb(field: &str) -> u64 {
    // Ambient read: the process's resident memory.
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"))
}

/// Current resident set size in kB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS")
}

/// A wall-clock stopwatch for host phases.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant); // audit:allow(ambient): host phase timing

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now()) // audit:allow(ambient): host phase timing
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Loop steps of the map-churn half of the reference computation.
const CHURN_STEPS: u64 = 10_000;
/// Events of the event-loop half of the reference computation.
const LOOP_EVENTS: u32 = 18_000;
/// The reference computation's wall time on the host the bounds were
/// set on, in its fast state (2 vCPU Intel Xeon). Calibrated host times
/// are host times scaled to that speed.
pub const REFERENCE_NOMINAL_S: f64 = 0.004;

/// Map churn with small allocations and branchy integer arithmetic.
fn churn() -> u64 {
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..CHURN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, vec![i; 4]);
        if let Some(v) = map.get(&(x.rotate_left(17) % 4096)) {
            acc = acc.wrapping_add(v[0]);
        }
        if i % 3 == 0 {
            map.remove(&(x.rotate_left(29) % 4096));
        }
    }
    acc
}

/// A miniature event loop: a timer heap, boxed handlers, shared
/// `Rc<RefCell<_>>` state and string-keyed counters, the shapes the
/// simulator's executor and metrics spend their time on.
fn event_loop() -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    type Handler = Box<dyn Fn(u64) -> u64>;
    let handlers: Vec<Handler> = (0..16u64)
        .map(|k| Box::new(move |t: u64| t.wrapping_mul(k + 3) % 977 + 1) as Handler)
        .collect();
    let cells: Vec<Rc<RefCell<Vec<u64>>>> = (0..16).map(|_| Rc::default()).collect();
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        (0..16u32).map(|k| Reverse((u64::from(k), k))).collect();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut acc = 0u64;
    for _ in 0..LOOP_EVENTS {
        let Reverse((t, k)) = heap.pop().expect("every event reschedules itself");
        let dt = handlers[k as usize](t);
        *counters.entry(format!("task.{}.runs", k % 8)).or_default() += 1;
        let cell = Rc::clone(&cells[k as usize]);
        {
            let mut v = cell.borrow_mut();
            v.push(t);
            if v.len() > 32 {
                v.clear();
            }
        }
        acc = acc.wrapping_add(dt);
        heap.push(Reverse((t + dt, k)));
    }
    acc + counters.len() as u64
}

/// Wall seconds a fixed reference computation takes on this host right
/// now: the fastest of three runs, so an interrupt does not count. The
/// computation uses no repository code, so no change to the program
/// moves it; only the host's speed does. On shared hosts that speed
/// drifts by tens of percent within minutes, and the simulator slows
/// with it.
pub fn reference_secs() -> f64 {
    (0..3)
        .map(|_| {
            let sw = Stopwatch::start();
            std::hint::black_box(churn());
            std::hint::black_box(event_loop());
            sw.secs()
        })
        .fold(f64::MAX, f64::min)
}

/// The host-time layers the benchmark can see from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The measured phase of one pass; every other span nests in it.
    Measure,
    /// One poll of a benchmark client task (client library + client side
    /// of the simulated network).
    ClientPoll,
    /// One `Kernel::execute` call.
    Execute,
    /// One `Kernel::work` call.
    Work,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Measure => "measure",
            Layer::ClientPoll => "client.poll",
            Layer::Execute => "kernel.execute",
            Layer::Work => "kernel.work",
        }
    }
}

/// One recorded host span. Times are nanoseconds since the recorder's
/// origin; `parent` indexes the span list (the measure span is 0);
/// `tag` is the client id for polls and the kernel index for kernel
/// spans.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which layer.
    pub layer: Layer,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: u32,
    /// Client id or kernel index.
    pub tag: u64,
}

/// Spans kept per traced pass; later ones are counted but not stored.
const SPAN_CAP: usize = 1 << 21;

/// Per-kernel host counters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct KernelHost {
    /// `execute` calls.
    pub exec_calls: u64,
    /// Nanoseconds inside `execute` (traced passes only).
    pub exec_ns: u64,
    /// `work` calls.
    pub work_calls: u64,
    /// Nanoseconds inside `work` (traced passes only).
    pub work_ns: u64,
}

/// Shared per-pass probe state: call counts always, host times and
/// spans only when tracing.
#[derive(Debug)]
pub struct Recorder {
    tracing: bool,
    origin: Instant, // audit:allow(ambient): span origin
    kernels: RefCell<Vec<(String, KernelHost)>>,
    client_ns: Cell<u64>,
    client_polls: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    dropped: Cell<u64>,
}

impl Recorder {
    /// A recorder; `tracing` turns on host timing and spans.
    pub fn new(tracing: bool) -> Rc<Self> {
        Rc::new(Recorder {
            tracing,
            origin: Instant::now(), // audit:allow(ambient): span origin
            kernels: RefCell::new(Vec::new()),
            client_ns: Cell::new(0),
            client_polls: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            dropped: Cell::new(0),
        })
    }

    /// Whether host timing is on.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    // audit:allow(ambient): converts a host instant to span time
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    // audit:allow(ambient): records a host-time span
    fn push(&self, layer: Layer, start: Instant, end: Instant, tag: u64) {
        let mut spans = self.spans.borrow_mut();
        if spans.len() >= SPAN_CAP {
            self.dropped.set(self.dropped.get() + 1);
            return;
        }
        spans.push(Span {
            layer,
            start: self.ns(start),
            end: self.ns(end),
            parent: 0,
            tag,
        });
    }

    /// Opens the measure span (index 0) that every later span nests in.
    pub fn open_measure(&self) {
        let now = Instant::now(); // audit:allow(ambient): measure span start
        let mut spans = self.spans.borrow_mut();
        spans.clear();
        spans.push(Span {
            layer: Layer::Measure,
            start: self.ns(now),
            end: self.ns(now),
            parent: 0,
            tag: 0,
        });
    }

    /// Closes the measure span.
    pub fn close_measure(&self) {
        let now = self.ns(Instant::now()); // audit:allow(ambient): measure span end
        if let Some(root) = self.spans.borrow_mut().first_mut() {
            root.end = now;
        }
    }

    /// Host counters per kernel name.
    pub fn kernels(&self) -> BTreeMap<String, KernelHost> {
        self.kernels.borrow().iter().cloned().collect()
    }

    /// Nanoseconds spent polling client tasks.
    pub fn client_ns(&self) -> u64 {
        self.client_ns.get()
    }

    /// Number of client-task polls.
    pub fn client_polls(&self) -> u64 {
        self.client_polls.get()
    }

    /// Resets kernel counters (after setup, so the measured phase counts
    /// only its own calls).
    pub fn reset_counts(&self) {
        for (_, h) in self.kernels.borrow_mut().iter_mut() {
            *h = KernelHost::default();
        }
        self.client_ns.set(0);
        self.client_polls.set(0);
    }

    /// Writes the spans as tab-separated rows
    /// (`id layer start_ns end_ns parent tag`), kernel tags resolved to
    /// names, to `path`.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let names: Vec<String> = self
            .kernels
            .borrow()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tlayer\tstart_ns\tend_ns\tparent\ttag")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let tag = match s.layer {
                Layer::Execute | Layer::Work => names
                    .get(s.tag as usize)
                    .cloned()
                    .unwrap_or_else(|| "?".into()),
                _ => s.tag.to_string(),
            };
            let parent = if i == 0 {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{tag}",
                s.layer.name(),
                s.start,
                s.end
            )?;
        }
        if self.dropped.get() > 0 {
            writeln!(
                out,
                "# {} spans beyond the cap were not kept",
                self.dropped.get()
            )?;
        }
        out.flush()
    }
}

/// The benchmark-owned kernel wrapper: delegates every call to the real
/// kernel, counting calls and (when tracing) timing `execute`/`work`.
pub struct Probed {
    inner: Rc<dyn Kernel>,
    rec: Rc<Recorder>,
    index: usize,
}

impl std::fmt::Debug for Probed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probed")
            .field("kernel", &self.inner.name())
            .finish()
    }
}

impl Probed {
    /// Wraps `inner`, reporting into `rec`.
    pub fn wrap(inner: Rc<dyn Kernel>, rec: &Rc<Recorder>) -> Rc<dyn Kernel> {
        let mut kernels = rec.kernels.borrow_mut();
        let index = kernels.len();
        kernels.push((inner.name().to_owned(), KernelHost::default()));
        Rc::new(Probed {
            inner,
            rec: Rc::clone(rec),
            index,
        })
    }

    fn bill(&self, f: impl FnOnce(&mut KernelHost)) {
        f(&mut self.rec.kernels.borrow_mut()[self.index].1);
    }
}

impl Kernel for Probed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn device_class(&self) -> DeviceClass {
        self.inner.device_class()
    }

    fn demand(&self) -> f64 {
        self.inner.demand()
    }

    fn warmup(&self) -> Warmup {
        self.inner.warmup()
    }

    fn work(&self, input: &Value) -> Result<WorkUnits, KernelError> {
        if !self.rec.tracing {
            self.bill(|h| h.work_calls += 1);
            return self.inner.work(input);
        }
        let t0 = Instant::now(); // audit:allow(ambient): kernel work timing
        let out = self.inner.work(input);
        let t1 = Instant::now(); // audit:allow(ambient): kernel work timing
        let ns = t1.saturating_duration_since(t0).as_nanos() as u64;
        self.bill(|h| {
            h.work_calls += 1;
            h.work_ns += ns;
        });
        self.rec.push(Layer::Work, t0, t1, self.index as u64);
        out
    }

    /// Always timed (two clock reads per call): host-time calibration
    /// needs every pass's kernel share. Spans only when tracing.
    fn execute(&self, input: &Value) -> Result<Value, KernelError> {
        let t0 = Instant::now(); // audit:allow(ambient): kernel execute timing
        let out = self.inner.execute(input);
        let t1 = Instant::now(); // audit:allow(ambient): kernel execute timing
        let ns = t1.saturating_duration_since(t0).as_nanos() as u64;
        self.bill(|h| {
            h.exec_calls += 1;
            h.exec_ns += ns;
        });
        if self.rec.tracing {
            self.rec.push(Layer::Execute, t0, t1, self.index as u64);
        }
        out
    }
}

/// A client task whose polls are timed when the recorder traces.
pub struct Polled<F> {
    fut: Pin<Box<F>>,
    rec: Rc<Recorder>,
    client: u64,
}

impl<F> std::fmt::Debug for Polled<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Polled")
            .field("client", &self.client)
            .finish()
    }
}

impl<F: Future> Polled<F> {
    /// Wraps client task `fut` of client `client`.
    pub fn new(fut: F, rec: &Rc<Recorder>, client: u64) -> Self {
        Polled {
            fut: Box::pin(fut),
            rec: Rc::clone(rec),
            client,
        }
    }
}

impl<F: Future> Future for Polled<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        if !self.rec.tracing {
            return self.fut.as_mut().poll(cx);
        }
        let t0 = Instant::now(); // audit:allow(ambient): client poll timing
        let out = self.fut.as_mut().poll(cx);
        let t1 = Instant::now(); // audit:allow(ambient): client poll timing
        let rec = &self.rec;
        rec.client_ns
            .set(rec.client_ns.get() + t1.saturating_duration_since(t0).as_nanos() as u64);
        rec.client_polls.set(rec.client_polls.get() + 1);
        rec.push(Layer::ClientPoll, t0, t1, self.client);
        out
    }
}
