//! The result of one benchmark run: metrics with units and sample
//! counts, the failure ledger, run metadata, and the two renderings —
//! a table for people and the final JSON line for tools.

use std::path::PathBuf;

use sempe_core::json::Json;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json` or the doc.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `MIPS`, `count`.
    pub unit: &'static str,
    /// Samples behind the value (1 for exact counts and single readings).
    pub samples: u64,
}

/// Everything one run produces.
#[derive(Debug)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (row runs or requests).
    pub attempted: u64,
    /// Operations that failed, including output mismatches.
    pub failed: u64,
    /// Output-check mismatches, described; any makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Workload-specific detail for the run's JSON record.
    pub detail: Json,
}

impl Default for Report {
    fn default() -> Report {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            detail: Json::Null,
        }
    }
}

impl Report {
    /// Append a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples });
    }

    /// Put the metrics in `declared` order. Every metric must be declared
    /// with its unit. A declared metric this workload does not measure is
    /// added as 0 with 0 samples when `fill` is set (a layer it does not
    /// exercise), and is a bug otherwise.
    pub fn order_as(&mut self, declared: &[(&str, &'static str)], fill: bool) {
        for m in &self.metrics {
            assert!(
                declared.iter().any(|l| l.0 == m.name && l.1 == m.unit),
                "metric {} ({}) is not declared",
                m.name,
                m.unit
            );
        }
        let mut have = std::mem::take(&mut self.metrics);
        for &(name, unit) in declared {
            match have.iter().position(|m| m.name == name) {
                Some(i) => self.metrics.push(have.swap_remove(i)),
                None if fill => self.push(name, 0.0, unit, 0),
                None => panic!("metric {name} was not measured"),
            }
        }
    }

    /// Record an output mismatch (counted as a failed operation).
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    /// Did every output check pass?
    #[must_use]
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The metrics as `{"name":{"value":v,"unit":u}}`.
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        let mut m = Json::obj();
        for x in &self.metrics {
            m.set(&x.name, Json::obj().with("value", x.value).with("unit", x.unit));
        }
        m
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", self.metrics_json())
            .encode()
    }

    /// Human-readable table of every metric with unit and sample count.
    pub fn print_table(&self) {
        println!("{:34} {:>16} {:>8} {:>9}", "metric", "value", "unit", "samples");
        for m in &self.metrics {
            println!("{:34} {:>16.6} {:>8} {:>9}", m.name, m.value, m.unit, m.samples);
        }
    }
}

/// Run metadata recorded with every result.
#[derive(Debug)]
pub struct Meta {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: u64,
    /// Traced run?
    pub trace: bool,
}

impl Meta {
    /// Metadata as JSON: the arguments plus commit, source digest and `nproc`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("workload", self.workload.as_str())
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("trace", self.trace)
            .with("commit", commit())
            .with("source_digest", format!("{:016x}", source_digest()))
            .with("nproc", nproc() as u64)
    }
}

/// Host CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Root of the checkout the benchmark was built in.
#[must_use]
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Directory for run records, span logs and the exact-count ledger.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The checked-out commit, or `unknown` outside a git working tree (a
/// plain source export has no history; [`source_digest`] identifies it).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// FNV-1a over the program's sources (`crates/`, workspace manifest and
/// lock file) and the benchmark's own (`perfbench/src`, its manifest),
/// in sorted path order: identifies the measured code and workload
/// programs even where no commit is available.
#[must_use]
pub fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let bench = root.join("perfbench");
    let mut files =
        vec![root.join("Cargo.toml"), root.join("Cargo.lock"), bench.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    walk(&bench.join("src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.strip_prefix(&root).unwrap_or(f).to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    sempe_core::hash::fnv1a(&bytes)
}

/// Write a traced run's spans to `spans-<workload>.jsonl` in [`out_dir`].
pub fn write_spans(tracer: &crate::trace::Tracer, workload: &str) {
    let path = out_dir().join(format!("spans-{workload}.jsonl"));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| tracer.write_jsonl(&path));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
