//! Seeded generation of the `serve-routed` traffic. The seed sets the
//! program variants, the batch inputs, the class mix order and the
//! arrival times; the program under test only ever sees the generated
//! request lines.

use std::collections::BTreeMap;

use sempe_compile::{parse_wir, run_wir, to_source};
use sempe_core::json;
use sempe_workloads::rng::SplitMix64;
use sempe_workloads::{table_modexp_program, TableModexpParams};

/// Request class of the `serve-routed` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A cached `run` repeat: front-door cost.
    Hit,
    /// A `run` of a never-seen program: compile and simulate.
    Miss,
    /// A `batch` of trials on the fork server, fanned out by the router.
    Batch,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 3] = [Class::Hit, Class::Miss, Class::Batch];

    /// Metric-name prefix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Batch => "batch",
        }
    }
}

/// Distinct cached programs the hit class cycles over; both shards own
/// some of them under the router's rendezvous placement.
pub const HIT_KEYS: usize = 8;

/// Trials per `batch` request: at the router's fan-out threshold, so
/// every batch is split across both shards and merged.
pub const BATCH_TRIALS: usize = 8;

/// Fuel per request, far above what any generated program needs.
const MAX_CYCLES: u64 = 50_000_000;

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Seconds after the phase starts that the request is due.
    pub due_s: f64,
    /// Request class.
    pub class: Class,
    /// Load connection that carries it.
    pub conn: usize,
    /// The request line, without its id member.
    pub body: String,
    /// What a correct answer contains.
    pub expect: Expect,
}

/// The output check for one request.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Byte-identical to the first response for hit key `k`.
    Hit(usize),
    /// A `run` whose outputs equal the WIR interpreter's.
    Run(Vec<u64>),
    /// A `batch` whose trials' outputs equal the interpreter's, in order.
    Batch(Vec<Vec<u64>>),
}

/// A uniform draw in `[0, 1)`.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// WIR source of a small secret-keyed modexp. `tag` makes every variant
/// a distinct program (a distinct cache key and shard placement);
/// `key` and `base` are drawn from the seed.
fn modexp_source(key: u64, base: u64, tag: u64) -> String {
    format!(
        "secret key = {key};\nvar r = 1;\nvar base = {base};\nvar i = 0;\nvar bit = 0;\n\
         var tag = {tag};\nwhile (i < 12) bound 13 {{\n    bit = (key >> i) & 1;\n    \
         if secret (bit) {{ r = (r * base) % 1000003; }}\n    base = (base * base) % 1000003;\n    \
         i = i + 1;\n}}\nr = r + tag;\noutput r;\n"
    )
}

fn run_body(source: &str) -> String {
    format!(
        r#""type":"run","source":{},"backend":"sempe","max_cycles":{MAX_CYCLES}"#,
        json::escape(source)
    )
}

fn wir_outputs(source: &str, overrides: &[(&str, u64)]) -> Vec<u64> {
    let parsed = parse_wir(source).expect("generated source parses");
    let prog = parsed.program;
    let map: BTreeMap<_, _> = overrides
        .iter()
        .map(|(name, v)| (prog.find_var(name).expect("declared variable"), *v))
        .collect();
    run_wir(&prog, &map).expect("generated program runs").outputs
}

/// The traffic of one `serve-routed` run: the fixed hit keys and batch
/// victim, and a generator for phases.
#[derive(Debug)]
pub struct Traffic {
    rng: SplitMix64,
    next_tag: u64,
    /// Request bodies of the hit keys, warmed before timing.
    pub hit_bodies: Vec<String>,
    /// Expected outputs of each hit key's `run`.
    pub hit_outputs: Vec<Vec<u64>>,
    batch_source: String,
}

impl Traffic {
    /// Everything derived from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Traffic {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_F00D_5E4E_0001);
        let mut hit_bodies = Vec::new();
        let mut hit_outputs = Vec::new();
        for k in 0..HIT_KEYS as u64 {
            let src = modexp_source(rng.next_u64() & 0xFFF, 2 + rng.next_u64() % 1000, k);
            hit_outputs.push(wir_outputs(&src, &[]));
            hit_bodies.push(run_body(&src));
        }
        // The attack-calibration victim of the fork-engine benchmarks,
        // at a table size whose source fits a request line.
        let (prog, key) =
            table_modexp_program(&TableModexpParams { table_words: 1 << 9, bits: 16, key: 0 });
        let batch_source = to_source(&prog, &[key]);
        Traffic { rng, next_tag: HIT_KEYS as u64, hit_bodies, hit_outputs, batch_source }
    }

    /// A `batch` body with seeded keys, and its expected trial outputs.
    fn batch(&mut self) -> (String, Expect) {
        let keys: Vec<u64> = (0..BATCH_TRIALS).map(|_| self.rng.next_u64() & 0xFFFF).collect();
        self.batch_with(&keys)
    }

    /// The `batch` that warms the victim's checkpoint during set-up.
    #[must_use]
    pub fn warm_batch(&self) -> (String, Expect) {
        self.batch_with(&(0..BATCH_TRIALS as u64).collect::<Vec<_>>())
    }

    fn batch_with(&self, keys: &[u64]) -> (String, Expect) {
        let inputs: Vec<String> = keys.iter().map(|k| format!(r#"{{"key":{k}}}"#)).collect();
        let expect = keys.iter().map(|&k| wir_outputs(&self.batch_source, &[("key", k)])).collect();
        let body = format!(
            r#""type":"batch","source":{},"backend":"sempe","inputs":[{}],"max_cycles":{MAX_CYCLES}"#,
            json::escape(&self.batch_source),
            inputs.join(",")
        );
        (body, Expect::Batch(expect))
    }

    /// A `run` of a program no earlier request used.
    fn miss(&mut self) -> (String, Expect) {
        let tag = self.next_tag;
        self.next_tag += 1;
        let src = modexp_source(self.rng.next_u64() & 0xFFF, 2 + self.rng.next_u64() % 1000, tag);
        let want = wir_outputs(&src, &[]);
        (run_body(&src), Expect::Run(want))
    }

    /// A Poisson arrival schedule at `rate` requests/s with exactly
    /// `counts[c]` requests of each class (in [`Class::ALL`] order),
    /// shuffled by the seed and dealt alternately to `conns` connections.
    pub fn phase(&mut self, rate: f64, counts: [usize; 3], conns: usize) -> Vec<Arrival> {
        let mut classes: Vec<Class> =
            Class::ALL.iter().zip(counts).flat_map(|(&c, n)| std::iter::repeat_n(c, n)).collect();
        for i in (1..classes.len()).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            classes.swap(i, j);
        }
        let mut t = 0.0;
        let mut out = Vec::with_capacity(classes.len());
        for (i, class) in classes.into_iter().enumerate() {
            t += -(1.0 - unit(&mut self.rng)).ln() / rate;
            let (body, expect) = match class {
                Class::Hit => {
                    let k = (self.rng.next_u64() % HIT_KEYS as u64) as usize;
                    (self.hit_bodies[k].clone(), Expect::Hit(k))
                }
                Class::Miss => self.miss(),
                Class::Batch => self.batch(),
            };
            out.push(Arrival { due_s: t, class, conn: i % conns, body, expect });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(a: &[Arrival]) -> Vec<(u64, Class, usize, String)> {
        a.iter().map(|x| (x.due_s.to_bits(), x.class, x.conn, x.body.clone())).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = Traffic::new(7).phase(500.0, [30, 20, 10], 2);
        let b = Traffic::new(7).phase(500.0, [30, 20, 10], 2);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = Traffic::new(8).phase(500.0, [30, 20, 10], 2);
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn schedule_has_exact_class_counts_and_rate() {
        let a = Traffic::new(3).phase(400.0, [600, 300, 100], 2);
        let count = |c| a.iter().filter(|x| x.class == c).count();
        assert_eq!((count(Class::Hit), count(Class::Miss), count(Class::Batch)), (600, 300, 100));
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        // 1000 exponential gaps at 400/s: the mean is within 10% of 2.5 ms.
        let mean_gap = a.last().map_or(0.0, |x| x.due_s) / a.len() as f64;
        assert!((mean_gap - 0.0025).abs() < 0.00025, "mean gap {mean_gap}");
    }

    #[test]
    fn misses_are_distinct_programs() {
        let a = Traffic::new(5).phase(100.0, [0, 50, 0], 1);
        let mut bodies: Vec<&str> = a.iter().map(|x| x.body.as_str()).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), 50);
    }
}
