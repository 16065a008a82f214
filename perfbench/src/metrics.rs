//! The metric catalogue, the per-layer recorder, summary statistics,
//! host facts and the one-line JSON result.

use crate::inputs::{KERNELS, LOOPS};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every end-to-end metric, with its unit. Every workload reports every
/// one of them (`README.md` gives each workload's definition).
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("opd", "ops/datum"),
    ("req_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("cpu_us_per_req", "us"),
    ("ns_per_datum", "ns"),
    ("verdict_s", "s"),
];

/// Layer boundaries the traced runs time, each reported as total µs,
/// call count and median µs per call.
pub const TIMED_LAYERS: [&str; 14] = [
    "ir.parse_us",
    "reorg.place_us",
    "codegen.generate_us",
    "analysis.us",
    "engine.predecode_us",
    "engine.bake_us",
    "engine.lower_us",
    "engine.run_us",
    "vm.seed_us",
    "vm.oracle_us",
    "vm.diff_us",
    "verify.prove_us",
    "server.decode_us",
    "server.encode_us",
];

/// Layer counts and ratios the traced runs report.
const LAYER_COUNTS: [(&str, &str); 7] = [
    ("reorg.shifts", "count"),
    ("reorg.shifts_over_bound", "ratio"),
    ("codegen.insts", "count"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.cache_misses", "count"),
    ("engine.cache_evictions", "count"),
    ("vm.seed_bytes", "bytes"),
];

/// Client-side latency of each `serve-mixed` verb.
pub const SERVER_VERBS: [&str; 4] = ["run", "compile", "sweep", "analyze"];

/// Every per-layer metric, with its unit, in output order. A workload
/// whose path does not cross a layer reports that layer's metrics as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for name in TIMED_LAYERS {
        out.push((name.to_string(), "us"));
        out.push((format!("{name}.calls"), "count"));
        out.push((format!("{name}.p50"), "us"));
    }
    out.extend(LAYER_COUNTS.iter().map(|&(n, u)| (n.to_string(), u)));
    for k in KERNELS {
        out.push((format!("kernel.{k}.ns_per_datum"), "ns"));
        out.push((format!("kernel.{k}.baked_ns_per_datum"), "ns"));
        out.push((format!("kernel.{k}.roofline_frac"), "ratio"));
        out.push((format!("kernel.{k}.ops"), "count"));
    }
    out.push(("verify.units".to_string(), "count"));
    out.push(("verify.runs".to_string(), "count"));
    out.push(("verify.runs_per_s".to_string(), "1/s"));
    for l in LOOPS {
        out.push((format!("verify.{l}.verdict_ms"), "ms"));
    }
    out.push(("server.ping_p50_us".to_string(), "us"));
    for v in SERVER_VERBS {
        out.push((format!("server.{v}.p50_us"), "us"));
    }
    out.push(("server.other_us".to_string(), "us"));
    out.push(("trace.other_us".to_string(), "us"));
    out.push(("trace.overhead".to_string(), "ratio"));
    out
}

/// Wall time of the benchmark's own calls into each layer, and the
/// counts those calls return.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    times: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Runs `f`, charging its wall time to layer `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    /// Charges `us` microseconds to layer `name` as one call.
    pub fn record(&mut self, name: &'static str, us: f64) {
        self.times.entry(name).or_default().push(us);
    }

    /// Adds `v` to count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Total µs over every layer: what the replay covers.
    pub fn total_us(&self) -> f64 {
        self.times.values().flatten().sum()
    }

    /// Folds `other`'s calls into this recorder.
    pub fn merge(&mut self, other: Layers) {
        for (name, v) in other.times {
            self.times.entry(name).or_default().extend(v);
        }
        for (name, v) in other.counts {
            self.count(name, v);
        }
    }

    /// Writes `<layer>`, `<layer>.calls` and `<layer>.p50` per timed
    /// layer, every count, and shifts placed ÷ the §5.3 bound.
    pub fn export(&self, values: &mut BTreeMap<String, f64>) {
        for (name, v) in &self.times {
            values.insert(name.to_string(), v.iter().sum());
            values.insert(format!("{name}.calls"), v.len() as f64);
            values.insert(format!("{name}.p50"), median(v));
        }
        for (name, v) in &self.counts {
            values.insert(name.to_string(), *v);
        }
        if let (Some(shifts), Some(bound)) = (
            self.counts.get("reorg.shifts"),
            self.counts.get("reorg.bound"),
        ) {
            values.insert("reorg.shifts_over_bound".to_string(), shifts / bound);
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output failed its check (or that errored).
    pub failed: u64,
    /// Why the run is not correct beyond counted failures (a replay
    /// that stopped covering its wall time, a value that is not a
    /// finite number, ...).
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Fails the run unless the replay's layers (`layer_us`) cover at
    /// least `min` of the `untraced_us` they replay, and reports the
    /// residual per request and the tracing overhead (`traced_us` ÷
    /// `untraced_us`).
    pub fn set_coverage(
        &mut self,
        min: f64,
        untraced_us: f64,
        layer_us: f64,
        traced_us: f64,
        requests: u64,
    ) {
        let coverage = layer_us / untraced_us;
        if coverage.is_nan() || coverage < min {
            self.problems.push(format!(
                "replay covers {:.1}% of the untraced wall time (need {:.0}%)",
                coverage * 100.0,
                min * 100.0
            ));
        }
        self.set(
            "trace.other_us",
            (untraced_us - layer_us) / requests.max(1) as f64,
        );
        self.set("trace.overhead", traced_us / untraced_us);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: every end-to-end metric (`trace` false) or
    /// every per-layer metric (`trace` true). A missing or non-finite
    /// end-to-end value, or a non-finite layer value, makes the run
    /// incorrect; a layer the workload does not cross reads 0.
    pub fn render(&mut self, trace: bool) -> String {
        let catalogue: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        if self.attempted == 0 {
            self.problems.push("no output was checked".to_string());
        }
        let mut body = Vec::with_capacity(catalogue.len());
        for (name, unit) in &catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() && (trace || *v > 0.0) => *v,
                None if trace => 0.0,
                other => {
                    self.problems
                        .push(format!("metric {name} has no usable value ({other:?})"));
                    0.0
                }
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The nearest-rank `p`-th percentile of `v` (0 when empty); the 50th
/// averages the two middle samples of an even count.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if p == 50.0 && s.len().is_multiple_of(2) {
        return (s[s.len() / 2 - 1] + s[s.len() / 2]) / 2.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The smallest of `v` (infinity when empty).
pub fn best(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The geometric mean of `v` (0 when empty).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The `/proc` entry of `pid`, or of this process.
fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Peak resident set (`VmHWM`) of `pid` (or this process) in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kib / 1024.0)
}

/// User plus system CPU seconds `pid` (or this process) has used, all
/// threads included, at Linux's fixed 100 ticks per second.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: malformed"))
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// User plus system CPU nanoseconds this process has used, all threads
/// included (`CLOCK_PROCESS_CPUTIME_ID`). Unlike [`cpu_seconds`], which
/// counts 10 ms ticks, this is exact, so it can time a single call.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on 64-bit Linux), and the clock id is a
    // constant every Linux kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The host facts every result records: results from different ISA
/// tiers or machines must not be compared.
pub fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name") || l.starts_with("Model"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let l2 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let forced = std::env::var("SIMDIZE_ISA")
        .map_or_else(|_| "null".to_string(), |v| format!("\"{}\"", escape(&v)));
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"l2\": \"{}\", \
         \"isa\": \"{}\", \"isa_forced\": {forced}}}}}",
        escape(model),
        escape(&l2),
        simdize::IsaLevel::detect().name()
    )
}

fn escape(s: &str) -> String {
    simdize_telemetry::json::escape(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_means() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 25.0), 1.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        while process_cpu_ns() - t0 < 2_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }

    #[test]
    fn layer_export_reports_calls_total_and_median() {
        let mut l = Layers::default();
        l.record("vm.seed_us", 1.0);
        l.record("vm.seed_us", 3.0);
        l.record("vm.seed_us", 2.0);
        let mut v = BTreeMap::new();
        l.export(&mut v);
        assert_eq!(v["vm.seed_us"], 6.0);
        assert_eq!(v["vm.seed_us.calls"], 3.0);
        assert_eq!(v["vm.seed_us.p50"], 2.0);
        assert_eq!(l.total_us(), 6.0);
    }

    #[test]
    fn render_refuses_missing_end_to_end_metrics() {
        let mut o = Outcome::default();
        o.check(true);
        let line = o.render(false);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        let mut traced = Outcome::default();
        traced.check(true);
        assert!(traced.render(true).starts_with("{\"correct\": true"));
    }
}
