//! Telemetry primitives: lock-free latency histograms, windowed rate
//! counters, request-scoped identifiers, a rotating JSONL span log,
//! and a Prometheus text-format writer/checker.
//!
//! [`crate::obs`] instruments a *single* enumeration run; this module
//! provides the building blocks for aggregating *across* runs — the
//! long-lived counters a server (or a load generator) keeps over its
//! lifetime:
//!
//! * [`Histogram`] — a lock-free log-linear histogram of `u64` samples
//!   (typically nanoseconds). Recording is one relaxed `fetch_add`;
//!   per-thread histograms merge exactly (bucket-wise addition), and
//!   reported quantiles are within a documented relative error bound
//!   ([`Histogram::RELATIVE_ERROR`], 1/16) of the exact sample
//!   quantiles.
//! * [`RateCounter`] — a ring of one-second slots answering "how many
//!   events in the last *w* seconds".
//! * [`RequestIdGen`] — cheap process-unique request identifiers.
//! * [`JsonlLog`] — an append-only JSONL file with size-based rotation:
//!   the one span writer, one [`trace::SpanRecord::to_jsonl`] line per
//!   finished span.
//! * [`write_escaped`] — the workspace's one JSON string escaper, shared
//!   by the span JSONL lines and the server's wire encoder, so every
//!   JSON string is escaped byte-identically.
//! * [`prom`] — rendering *and validation* of the Prometheus text
//!   exposition format (version 0.0.4), with no external dependencies.
//! * [`trace`] — distributed tracing spans: trace/span identifiers that
//!   propagate across the wire, the [`trace::SpanSink`] trait, and a
//!   lock-free-cursor ring sink for tests and benches.

pub mod trace;

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two range (16).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: values below [`SUB`] get exact unit buckets;
/// every exponent range above contributes [`SUB`] buckets.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Maps a sample to its bucket index (log-linear, monotone).
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // >= SUB_BITS
    let offset = (value >> (exp - SUB_BITS)) - SUB; // in [0, SUB)
    ((exp - SUB_BITS + 1) as u64 * SUB + offset) as usize
}

/// The inclusive lower bound and width of bucket `index` (inverse of
/// [`bucket_index`]).
fn bucket_bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB {
        return (index, 1);
    }
    let block = index / SUB; // >= 1
    let offset = index % SUB;
    let width = 1u64 << (block - 1);
    ((SUB + offset) << (block - 1), width)
}

/// A lock-free log-linear histogram of `u64` samples.
///
/// Buckets are exact for values below 16 and split every power-of-two
/// range `[2^e, 2^(e+1))` into 16 linear sub-buckets above that, so a
/// bucket's width never exceeds 1/16 of its lower bound. Recording is a
/// relaxed `fetch_add` on one bucket plus the count/sum/max registers —
/// no locks, safe to share across threads via `&`/`Arc`.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Upper bound on the relative error of reported quantiles against
    /// the exact sample quantiles: bucket width / bucket lower bound,
    /// i.e. `1/16` (the bound is loose; midpoint reporting halves it).
    pub const RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time plain-value snapshot (drops empty tail buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A plain-value snapshot of a [`Histogram`]: mergeable, queryable, and
/// renderable as Prometheus cumulative buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (exact, not bucketed).
    pub max: u64,
    /// Per-bucket counts, indexed like the live histogram; empty tail
    /// buckets are trimmed.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Folds `other` into `self`. Merging is exact and commutative:
    /// bucket-wise addition, so the merge of per-thread histograms
    /// equals the histogram of the combined sample stream.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// The mean sample (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 <= q <= 1.0`) as a representative value
    /// (bucket midpoint), within [`Histogram::RELATIVE_ERROR`] of the
    /// exact sample quantile. `q = 1.0` returns the exact maximum;
    /// an empty histogram returns 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (low, width) = bucket_bounds(index);
                return low + width / 2;
            }
        }
        self.max
    }

    /// Cumulative counts at each threshold of `bounds` (inclusive
    /// `value <= bound`), for Prometheus `_bucket` samples. Bounds must
    /// be ascending. The count of samples in a bucket straddling a
    /// bound is attributed by the bucket's lower bound, consistent with
    /// the histogram's error envelope.
    pub fn cumulative_le(&self, bounds: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(bounds.len());
        for &bound in bounds {
            let mut total = 0u64;
            for (index, &n) in self.buckets.iter().enumerate() {
                let (low, _) = bucket_bounds(index);
                if low <= bound {
                    total += n;
                } else {
                    break;
                }
            }
            out.push(total);
        }
        out
    }
}

/// Default latency bucket thresholds in nanoseconds for Prometheus
/// exposition: 100µs to ~100s in decade steps of 1/2.5/5 plus a 10µs
/// floor — 14 bounds covering cache hits through deep enumerations.
pub const LATENCY_LE_NANOS: [u64; 14] = [
    10_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
];

/// Number of one-second slots a [`RateCounter`] retains.
const RATE_SLOTS: usize = 64;

/// A windowed event-rate counter: a ring of one-second slots, each
/// tagged with the absolute second it covers. Recording and querying
/// are lock-free; slots older than the ring length are recycled in
/// place.
#[derive(Debug)]
pub struct RateCounter {
    start: Instant,
    epochs: Vec<AtomicU64>,
    counts: Vec<AtomicU64>,
}

impl Default for RateCounter {
    fn default() -> Self {
        RateCounter::new()
    }
}

impl RateCounter {
    /// A fresh counter; second 0 is the moment of construction.
    pub fn new() -> Self {
        RateCounter {
            start: Instant::now(),
            // Epoch 0 is in-band for slot 0, so tag every slot as
            // already-current at second 0 with count 0.
            epochs: (0..RATE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            counts: (0..RATE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn now_sec(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Records one event at the current wall second.
    pub fn record(&self) {
        self.record_at(self.now_sec());
    }

    /// Records one event at absolute second `sec` (test hook; normal
    /// callers use [`RateCounter::record`]).
    pub fn record_at(&self, sec: u64) {
        let slot = (sec as usize) % RATE_SLOTS;
        let epoch = &self.epochs[slot];
        let count = &self.counts[slot];
        let seen = epoch.load(Ordering::Acquire);
        if seen != sec {
            // First writer of a new second resets the slot. A racing
            // recorder of the same second may lose its increment to the
            // reset — acceptable for a statistics counter.
            if epoch
                .compare_exchange(seen, sec, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                count.store(0, Ordering::Release);
            }
        }
        count.fetch_add(1, Ordering::Relaxed);
    }

    /// Events per second over the trailing `window` seconds (capped at
    /// the ring length), excluding the current (incomplete) second when
    /// at least one full second has elapsed.
    pub fn rate_per_sec(&self, window: u64) -> f64 {
        self.rate_at(self.now_sec(), window)
    }

    /// As [`RateCounter::rate_per_sec`] at an explicit current second
    /// (test hook).
    pub fn rate_at(&self, now_sec: u64, window: u64) -> f64 {
        let window = window.clamp(1, RATE_SLOTS as u64 - 1);
        // Average over the last `window` *complete* seconds; before any
        // second completes, fall back to the live one.
        let (first, last) = if now_sec == 0 {
            (0, 0)
        } else {
            (now_sec.saturating_sub(window), now_sec - 1)
        };
        let mut total = 0u64;
        for sec in first..=last {
            let slot = (sec as usize) % RATE_SLOTS;
            if self.epochs[slot].load(Ordering::Acquire) == sec {
                total += self.counts[slot].load(Ordering::Relaxed);
            }
        }
        total as f64 / (last - first + 1) as f64
    }
}

/// Process-unique request identifiers: a prefix plus a monotone
/// counter (`r1`, `r2`, …).
#[derive(Debug)]
pub struct RequestIdGen {
    prefix: &'static str,
    next: AtomicU64,
}

impl Default for RequestIdGen {
    fn default() -> Self {
        RequestIdGen::new("r")
    }
}

impl RequestIdGen {
    /// A generator whose ids start with `prefix`.
    pub fn new(prefix: &'static str) -> Self {
        RequestIdGen {
            prefix,
            next: AtomicU64::new(1),
        }
    }

    /// The next id.
    pub fn next_id(&self) -> String {
        format!(
            "{}{}",
            self.prefix,
            self.next.fetch_add(1, Ordering::Relaxed)
        )
    }
}

/// Writes `s` as a quoted JSON string literal into `out`.
///
/// `"` and `\` are backslash-escaped, `\n`/`\r`/`\t` use their short
/// forms, every other control character below U+0020 becomes a
/// lowercase `\u00xx`, and everything else (non-ASCII included) is
/// written as is. Strings are overwhelmingly escape-free, so the
/// maximal clean run is written as one slice: no allocation and no
/// per-character formatting.
///
/// # Errors
///
/// Only those of `out` (writing into a `String` never fails).
pub fn write_escaped<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.write_str(&rest[..i])?;
        match rest.as_bytes()[i] {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            b => write!(out, "\\u{b:04x}")?,
        }
        rest = &rest[i + 1..];
    }
    out.write_str(rest)?;
    out.write_char('"')
}

struct JsonlInner {
    file: Option<File>,
    written: u64,
}

/// An append-only JSONL span file with size-based rotation: each
/// recorded span becomes one [`trace::SpanRecord::to_jsonl`] line. When
/// the current file exceeds `max_bytes` it is renamed to `<path>.1`
/// (replacing any previous rotation) and a fresh file is started,
/// bounding disk use at roughly twice `max_bytes`. Write errors are
/// swallowed after being counted — telemetry must never take the
/// service down.
pub struct JsonlLog {
    path: PathBuf,
    max_bytes: u64,
    inner: Mutex<JsonlInner>,
    dropped: AtomicU64,
}

impl fmt::Debug for JsonlLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlLog")
            .field("path", &self.path)
            .field("max_bytes", &self.max_bytes)
            .finish()
    }
}

impl JsonlLog {
    /// Opens (appending) or creates the log at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the failure to open the file.
    pub fn open(path: impl Into<PathBuf>, max_bytes: u64) -> std::io::Result<JsonlLog> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(JsonlLog {
            path,
            max_bytes: max_bytes.max(1),
            inner: Mutex::new(JsonlInner {
                file: Some(file),
                written,
            }),
            dropped: AtomicU64::new(0),
        })
    }

    /// The path rotated-out content is moved to.
    pub fn rotated_path(&self) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(".1");
        PathBuf::from(name)
    }

    /// Lines that failed to be written (I/O errors).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn try_emit(&self, line: &str) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("log poisoned");
        if inner.written >= self.max_bytes {
            inner.file = None; // close before rename (Windows-friendly)
            std::fs::rename(&self.path, self.rotated_path())?;
            inner.file = Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?,
            );
            inner.written = 0;
        }
        if inner.file.is_none() {
            inner.file = Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?,
            );
        }
        let file = inner.file.as_mut().expect("file just opened");
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        inner.written += line.len() as u64 + 1;
        Ok(())
    }
}

impl trace::SpanSink for JsonlLog {
    fn record_span(&self, span: trace::SpanRecord) {
        if self.try_emit(&span.to_jsonl()).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

pub mod prom {
    //! Prometheus text exposition format (0.0.4): a writer that renders
    //! metric families and a checker that validates a scraped payload —
    //! both hand-rolled, no external dependencies.

    use std::collections::BTreeMap;

    use super::HistogramSnapshot;

    /// Builds a text-format payload family by family.
    #[derive(Debug, Default)]
    pub struct PromText {
        out: String,
    }

    fn escape_help(s: &str) -> String {
        s.replace('\\', "\\\\").replace('\n', "\\n")
    }

    fn escape_label(s: &str) -> String {
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    }

    fn render_labels(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let body: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    fn render_value(v: f64) -> String {
        if v.is_infinite() {
            if v > 0.0 {
                "+Inf".into()
            } else {
                "-Inf".into()
            }
        } else if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    }

    impl PromText {
        /// An empty payload.
        pub fn new() -> Self {
            PromText::default()
        }

        fn header(&mut self, name: &str, help: &str, ty: &str) {
            self.out
                .push_str(&format!("# HELP {name} {}\n", escape_help(help)));
            self.out.push_str(&format!("# TYPE {name} {ty}\n"));
        }

        /// A counter family with one sample per label set.
        pub fn counter(&mut self, name: &str, help: &str, samples: &[(&[(&str, &str)], f64)]) {
            self.header(name, help, "counter");
            for (labels, value) in samples {
                self.out.push_str(&format!(
                    "{name}{} {}\n",
                    render_labels(labels),
                    render_value(*value)
                ));
            }
        }

        /// A gauge family with one sample per label set.
        pub fn gauge(&mut self, name: &str, help: &str, samples: &[(&[(&str, &str)], f64)]) {
            self.header(name, help, "gauge");
            for (labels, value) in samples {
                self.out.push_str(&format!(
                    "{name}{} {}\n",
                    render_labels(labels),
                    render_value(*value)
                ));
            }
        }

        /// A histogram family rendered from snapshots, one per label
        /// set. Sample values are nanoseconds; the exposition is in
        /// seconds with thresholds `le_nanos` (ascending) plus `+Inf`.
        pub fn histogram_nanos(
            &mut self,
            name: &str,
            help: &str,
            le_nanos: &[u64],
            series: &[(&[(&str, &str)], &HistogramSnapshot)],
        ) {
            self.histogram_scaled(name, help, le_nanos, series, 1e9);
        }

        /// A histogram family whose samples are plain values (batch
        /// sizes, hop counts), exposed with the thresholds as given —
        /// no unit scaling, unlike [`PromText::histogram_nanos`].
        pub fn histogram_values(
            &mut self,
            name: &str,
            help: &str,
            le: &[u64],
            series: &[(&[(&str, &str)], &HistogramSnapshot)],
        ) {
            self.histogram_scaled(name, help, le, series, 1.0);
        }

        fn histogram_scaled(
            &mut self,
            name: &str,
            help: &str,
            le_bounds: &[u64],
            series: &[(&[(&str, &str)], &HistogramSnapshot)],
            divisor: f64,
        ) {
            self.header(name, help, "histogram");
            for (labels, snap) in series {
                let cumulative = snap.cumulative_le(le_bounds);
                for (bound, cum) in le_bounds.iter().zip(&cumulative) {
                    let mut with_le: Vec<(&str, String)> =
                        labels.iter().map(|(k, v)| (*k, (*v).to_owned())).collect();
                    with_le.push(("le", render_value(*bound as f64 / divisor)));
                    let borrowed: Vec<(&str, &str)> =
                        with_le.iter().map(|(k, v)| (*k, v.as_str())).collect();
                    self.out.push_str(&format!(
                        "{name}_bucket{} {cum}\n",
                        render_labels(&borrowed)
                    ));
                }
                let mut with_inf: Vec<(&str, String)> =
                    labels.iter().map(|(k, v)| (*k, (*v).to_owned())).collect();
                with_inf.push(("le", "+Inf".to_owned()));
                let borrowed: Vec<(&str, &str)> =
                    with_inf.iter().map(|(k, v)| (*k, v.as_str())).collect();
                self.out.push_str(&format!(
                    "{name}_bucket{} {}\n",
                    render_labels(&borrowed),
                    snap.count
                ));
                self.out.push_str(&format!(
                    "{name}_sum{} {}\n",
                    render_labels(&labels.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()),
                    render_value(snap.sum as f64 / divisor)
                ));
                self.out.push_str(&format!(
                    "{name}_count{} {}\n",
                    render_labels(&labels.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()),
                    snap.count
                ));
            }
        }

        /// The finished payload.
        pub fn render(self) -> String {
            self.out
        }
    }

    /// What [`check`] learned about a valid payload.
    #[derive(Debug, Default, Clone, PartialEq)]
    pub struct CheckSummary {
        /// Metric family names seen (base names; `_bucket`/`_sum`/
        /// `_count` suffixes are folded into their histogram family).
        pub families: Vec<String>,
        /// Total sample lines.
        pub samples: usize,
    }

    impl CheckSummary {
        /// Whether `family` appeared in the payload.
        pub fn has_family(&self, family: &str) -> bool {
            self.families.iter().any(|f| f == family)
        }
    }

    fn valid_metric_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    fn valid_label_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
    }

    fn valid_value(v: &str) -> Option<f64> {
        match v {
            "+Inf" | "Inf" => Some(f64::INFINITY),
            "-Inf" => Some(f64::NEG_INFINITY),
            "NaN" => Some(f64::NAN),
            other => other.parse().ok(),
        }
    }

    /// Parses one `{a="b",c="d"}` label block; returns pairs.
    fn parse_labels(block: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
        let mut labels = Vec::new();
        let mut rest = block;
        loop {
            rest = rest.trim_start_matches([',', ' ']);
            if rest.is_empty() {
                return Ok(labels);
            }
            let eq = rest
                .find('=')
                .ok_or_else(|| format!("line {line_no}: label without '='"))?;
            let name = rest[..eq].trim();
            if !valid_label_name(name) {
                return Err(format!("line {line_no}: invalid label name '{name}'"));
            }
            rest = &rest[eq + 1..];
            if !rest.starts_with('"') {
                return Err(format!("line {line_no}: label value must be quoted"));
            }
            rest = &rest[1..];
            let mut value = String::new();
            let mut chars = rest.char_indices();
            let mut end = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => {
                        match chars.next() {
                            Some((_, 'n')) => value.push('\n'),
                            Some((_, escaped @ ('\\' | '"'))) => value.push(escaped),
                            _ => return Err(format!("line {line_no}: bad escape in label value")),
                        };
                    }
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    c => value.push(c),
                }
            }
            let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
            labels.push((name.to_owned(), value));
            rest = &rest[end + 1..];
        }
    }

    /// Per-family bookkeeping while checking.
    #[derive(Default)]
    struct FamilyInfo {
        ty: Option<String>,
        // histogram invariants, keyed by the non-`le` label set
        hist_last_cum: BTreeMap<String, (f64, u64)>, // last (le, cumulative)
        hist_inf: BTreeMap<String, u64>,
        hist_count: BTreeMap<String, u64>,
    }

    /// Validates a Prometheus text-format payload: comment structure,
    /// metric/label name grammar, quoted/escaped label values, numeric
    /// sample values, `TYPE` consistency (a family's samples must match
    /// its declared type's suffix rules), and histogram invariants
    /// (cumulative buckets non-decreasing in `le` order as rendered,
    /// `+Inf` bucket equal to `_count`).
    ///
    /// # Errors
    ///
    /// The first violation, as a human-readable message naming the line.
    pub fn check(text: &str) -> Result<CheckSummary, String> {
        let mut families: BTreeMap<String, FamilyInfo> = BTreeMap::new();
        let mut order = Vec::new();
        let mut samples = 0usize;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                let comment = comment.trim_start();
                if let Some(rest) = comment.strip_prefix("TYPE ") {
                    let mut parts = rest.splitn(2, ' ');
                    let name = parts.next().unwrap_or("");
                    let ty = parts.next().unwrap_or("").trim();
                    if !valid_metric_name(name) {
                        return Err(format!(
                            "line {line_no}: invalid metric name '{name}' in TYPE"
                        ));
                    }
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {line_no}: unknown TYPE '{ty}'"));
                    }
                    let info = families.entry(name.to_owned()).or_default();
                    if info.ty.is_some() {
                        return Err(format!("line {line_no}: duplicate TYPE for '{name}'"));
                    }
                    info.ty = Some(ty.to_owned());
                    order.push(name.to_owned());
                } else if let Some(rest) = comment.strip_prefix("HELP ") {
                    let name = rest.split(' ').next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return Err(format!(
                            "line {line_no}: invalid metric name '{name}' in HELP"
                        ));
                    }
                }
                // other comments are free-form
                continue;
            }
            // sample line: name[{labels}] value [timestamp]
            let (name_labels, value_ts) = match line.find([' ', '\t']) {
                Some(split) if !line[..split].contains('{') => {
                    (&line[..split], line[split..].trim_start())
                }
                _ => {
                    // label block may contain spaces; find the closing brace
                    match line.find('}') {
                        Some(close) => (&line[..=close], line[close + 1..].trim_start()),
                        None if line.contains('{') => {
                            return Err(format!("line {line_no}: unterminated label block"))
                        }
                        None => {
                            let split = line
                                .find([' ', '\t'])
                                .ok_or_else(|| format!("line {line_no}: sample without value"))?;
                            (&line[..split], line[split..].trim_start())
                        }
                    }
                }
            };
            let (name, labels) = match name_labels.find('{') {
                Some(open) => {
                    let block = name_labels
                        .strip_suffix('}')
                        .ok_or_else(|| format!("line {line_no}: unterminated label block"))?;
                    (
                        &name_labels[..open],
                        parse_labels(&block[open + 1..], line_no)?,
                    )
                }
                None => (name_labels, Vec::new()),
            };
            if !valid_metric_name(name) {
                return Err(format!("line {line_no}: invalid metric name '{name}'"));
            }
            let value_str = value_ts.split_whitespace().next().unwrap_or("");
            let value = valid_value(value_str)
                .ok_or_else(|| format!("line {line_no}: invalid value '{value_str}'"))?;
            samples += 1;

            // Fold histogram suffixes into their declared family.
            let base = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
                let stripped = name.strip_suffix(suffix)?;
                families
                    .get(stripped)
                    .filter(|info| info.ty.as_deref() == Some("histogram"))
                    .map(|_| (stripped.to_owned(), *suffix))
            });
            match base {
                Some((family, suffix)) => {
                    let key: String = labels
                        .iter()
                        .filter(|(k, _)| k != "le")
                        .map(|(k, v)| format!("{k}={v},"))
                        .collect();
                    let info = families.get_mut(&family).expect("family just found");
                    match suffix {
                        "_bucket" => {
                            let le = labels
                                .iter()
                                .find(|(k, _)| k == "le")
                                .ok_or_else(|| {
                                    format!("line {line_no}: _bucket sample without 'le'")
                                })?
                                .1
                                .clone();
                            let le_val = valid_value(&le)
                                .ok_or_else(|| format!("line {line_no}: invalid le '{le}'"))?;
                            let cum = value as u64;
                            if let Some((last_le, last_cum)) = info.hist_last_cum.get(&key) {
                                if le_val < *last_le {
                                    return Err(format!(
                                        "line {line_no}: 'le' out of order for '{family}'"
                                    ));
                                }
                                if cum < *last_cum {
                                    return Err(format!(
                                        "line {line_no}: cumulative bucket count decreased \
                                         for '{family}'"
                                    ));
                                }
                            }
                            info.hist_last_cum.insert(key.clone(), (le_val, cum));
                            if le_val.is_infinite() {
                                info.hist_inf.insert(key, cum);
                            }
                        }
                        "_count" => {
                            info.hist_count.insert(key, value as u64);
                        }
                        _ => {} // _sum: any float is fine
                    }
                }
                None => {
                    // Plain sample: family may be declared (counter/gauge)
                    // or undeclared (untyped); counters must be >= 0.
                    if let Some(info) = families.get(name) {
                        if info.ty.as_deref() == Some("counter") && value < 0.0 {
                            return Err(format!("line {line_no}: negative counter '{name}'"));
                        }
                        if info.ty.as_deref() == Some("histogram") {
                            return Err(format!(
                                "line {line_no}: histogram family '{name}' sampled \
                                 without _bucket/_sum/_count suffix"
                            ));
                        }
                    } else if !order.contains(&name.to_owned()) {
                        order.push(name.to_owned());
                        families.entry(name.to_owned()).or_default();
                    }
                }
            }
        }
        // Histogram closure: every series needs a +Inf bucket equal to
        // its _count.
        for (family, info) in &families {
            if info.ty.as_deref() != Some("histogram") {
                continue;
            }
            for (key, count) in &info.hist_count {
                match info.hist_inf.get(key) {
                    None => {
                        return Err(format!(
                            "histogram '{family}' series {{{key}}} lacks a +Inf bucket"
                        ))
                    }
                    Some(inf) if inf != count => {
                        return Err(format!(
                            "histogram '{family}' series {{{key}}}: +Inf bucket {inf} \
                             != count {count}"
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        let families = order
            .into_iter()
            .filter(|f| seen.insert(f.clone()))
            .collect();
        Ok(CheckSummary { families, samples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_invertible() {
        let mut last = 0usize;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
            let (low, width) = bucket_bounds(idx);
            assert!(low <= v, "low {low} > {v}");
            assert!(
                v - low < width,
                "value {v} outside bucket [{low}, +{width})"
            );
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn width_never_exceeds_error_bound() {
        for idx in SUB as usize..BUCKETS {
            let (low, width) = bucket_bounds(idx);
            assert!(
                (width as f64) <= low as f64 * Histogram::RELATIVE_ERROR,
                "bucket {idx}: width {width} low {low}"
            );
        }
    }

    #[test]
    fn rate_counter_windows() {
        let rc = RateCounter::new();
        for sec in 0..10u64 {
            for _ in 0..(sec + 1) {
                rc.record_at(sec);
            }
        }
        // At second 10, the last 5 complete seconds are 5..=9 with
        // counts 6..=10 -> mean 8.
        assert!((rc.rate_at(10, 5) - 8.0).abs() < 1e-9);
        // Window of 1: just second 9.
        assert!((rc.rate_at(10, 1) - 10.0).abs() < 1e-9);
        // Far in the future every slot is stale.
        assert_eq!(rc.rate_at(1000, 5), 0.0);
    }
}
