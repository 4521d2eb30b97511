//! The metric registry: every name the benchmark prints, its unit, which way
//! is better and — for end-to-end metrics — the bound by which it may worsen
//! before a change counts as a regression. `BENCHMARK.json` at the repo root
//! mirrors the two driver-facing lists; a unit test keeps them in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before `--compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline's median.
    Share(f64),
    /// Any worsening at all (`fail_share`).
    AnyIncrease,
    /// More than one rung of the open-loop ladder (`max_rate_ok_rps`).
    OneRung,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "lib_large",
        "in-process back-to-back execute on the GAP-twitter stand-in, d=32: the kernel is >=99% of each call, so codegen/tiling/ISA/schedule changes show here and runtime/serve changes must not",
    ),
    (
        "lib_mid_paced",
        "in-process execute on uniform 4096x4096/100k nnz, d=16, caller spins 2 ms between calls so workers park: the runtime handoff decides this number, the kernel does not",
    ),
    (
        "serve_open",
        "jitspmm-serve over loopback, two tiny engines, closed loop then an open-loop rate ladder: the kernel is ~0.3% of a round trip, serve and wire do the work",
    ),
    (
        "serve_update_mix",
        "jitspmm-serve --mutable --shards 4, closed-loop 512 KB MULs beside 20 UPDATE/s on one engine: update, shard, delta merge and large replies dominate; a gain for one side that costs the other shows",
    ),
];

/// The end-to-end metrics the driver gates: each is defined — and never
/// zero — on all four workloads, because every `--trace 0` run must print
/// every one of them. Bounds are shares of the parent's median, sized from
/// this host's measured run-to-run spread (README, "Steadiness"): at least
/// three times the widest quartile spread of a calm hour and one and a half
/// times that of a noisy one, capped at the 25% the driver allows.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (def("spmm_us_p50", "us", Lower), 0.25),
    (def("spmm_us_p90", "us", Lower), 0.25),
    (def("spmm_per_s", "1/s", Higher), 0.25),
    (def("server_rss_mb", "mb", Lower), 0.20),
    (def("setup_s", "s", Lower), 0.25),
];

/// What `--compare` gates beyond [`END_TO_END`], per workload, wherever a
/// result file carries it: the issue's end-to-end names that exist on some
/// workloads only (each is also in [`PER_LAYER`]). The issue's p99s are
/// recorded but not gated — a p99 over one window does not hold any bound
/// the driver allows on this host.
const COMPARE_ONLY: [(&str, Bound); 5] = [
    ("req_latency_us_p50", Bound::Share(0.25)),
    ("throughput_rps", Bound::Share(0.25)),
    ("max_rate_ok_rps", Bound::OneRung),
    ("update_latency_us_p50", Bound::Share(0.25)),
    ("fail_share", Bound::AnyIncrease),
];

/// Every metric `--compare` decides, with its bound.
pub fn compare_bounds() -> Vec<(MetricDef, Bound)> {
    let gated = END_TO_END.iter().map(|(def, share)| (*def, Bound::Share(*share)));
    let extra = COMPARE_ONLY.iter().map(|(name, bound)| {
        let def = PER_LAYER.iter().find(|d| d.name == *name).expect("listed in PER_LAYER");
        (*def, *bound)
    });
    gated.chain(extra).collect()
}

/// The open-loop ladder's offered rates, requests per second.
pub const LADDER_RATES: [u32; 5] = [250, 500, 1000, 2000, 4000];

/// Per-layer metrics, printed by every `--trace 1` run. A metric a workload
/// does not exercise reads 0 there (README lists which apply where).
pub const PER_LAYER: [MetricDef; 59] = [
    // End-to-end metrics of the issue that are not defined on all four
    // workloads, cannot hold a bound on a shared host (the p99s), or are
    // discrete / zero by design — kept under their names.
    def("spmm_us_p99", "us", Lower),
    def("req_latency_us_p50", "us", Lower),
    def("req_latency_us_p99", "us", Lower),
    def("throughput_rps", "1/s", Higher),
    def("max_rate_ok_rps", "1/s", Higher),
    def("update_latency_us_p50", "us", Lower),
    def("fail_share", "share", Lower),
    // Kernel stack, on the workload's own matrix and d.
    def("engine.execute_us_p50", "us", Lower),
    def("engine.kernel_us_p50", "us", Lower),
    def("engine.dispatch_us_p50", "us", Lower),
    def("runtime.wake_us_p50", "us", Lower),
    def("runtime.wake_us_p99", "us", Lower),
    def("runtime.lane_speedup", "ratio", Higher),
    def("runtime.pool_run_us_p50", "us", Lower),
    def("codegen.build_us_p50", "us", Lower),
    def("codegen.codegen_us_p50", "us", Lower),
    def("codegen.code_bytes", "bytes", Lower),
    def("profile.emu_instructions", "count", Lower),
    def("profile.emu_loads", "count", Lower),
    def("profile.emu_branches", "count", Lower),
    def("baseline.scalar_us_p50", "us", Lower),
    def("baseline.vectorized_us_p50", "us", Lower),
    def("baseline.mkl_like_us_p50", "us", Lower),
    def("paper.jit_over_vectorized", "ratio", Higher),
    def("paper.jit_over_mkl_like", "ratio", Higher),
    def("paper.codegen_share", "share", Lower),
    def("kernel.computed_gflops", "gflop/s", Higher),
    def("kernel.computed_gbytes_per_s", "gb/s", Higher),
    // Serve budget: one request stream replayed at each depth.
    def("wire.input_gen_us_p50", "us", Lower),
    def("serve.send_us_p50", "us", Lower),
    def("serve.inproc_latency_us_p50", "us", Lower),
    def("serve.self_us_p50", "us", Lower),
    def("wire.info_rtt_us_p50", "us", Lower),
    def("wire.reply_bytes", "bytes", Lower),
    def("wire.self_us_p50", "us", Lower),
    def("budget.unattributed_share", "share", Lower),
    def("serve.cpu_ms_per_kreq", "ms", Lower),
    // Open-loop ladder, one pair per rung run.
    def("ladder.r250.p50_us", "us", Lower),
    def("ladder.r250.p99_us", "us", Lower),
    def("ladder.r500.p50_us", "us", Lower),
    def("ladder.r500.p99_us", "us", Lower),
    def("ladder.r1000.p50_us", "us", Lower),
    def("ladder.r1000.p99_us", "us", Lower),
    def("ladder.r2000.p50_us", "us", Lower),
    def("ladder.r2000.p99_us", "us", Lower),
    def("ladder.r4000.p50_us", "us", Lower),
    def("ladder.r4000.p99_us", "us", Lower),
    def("ladder.gen_late_us_p99", "us", Lower),
    // Sharding and live updates.
    def("shard.execute_us_p50", "us", Lower),
    def("shard.unsharded_us_p50", "us", Lower),
    def("shard.speedup_vs_unsharded", "ratio", Higher),
    def("update.apply_us_p50", "us", Lower),
    def("sparse.apply_delta_us_p50", "us", Lower),
    def("update.full_rebuild_us_p50", "us", Lower),
    def("update.generations_retained", "count", Lower),
    def("update.latency_drift", "ratio", Lower),
    def("update.tcp_latency_us_p99", "us", Lower),
    def("serve.req_latency_us_p99", "us", Lower),
    // (traced p50 - untraced p50) / untraced p50 of the workload's main loop.
    def("trace.overhead_share", "share", Lower),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(d, _)| d)
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, samples: usize) -> Metric {
        Metric { name: name.into(), value, samples }
    }
}

/// What one pass of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted (SpMMs and updates) and how many of them erred,
    /// were refused or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// Replies compared element by element against the oracle.
    pub oracle_checks: u64,
    /// Anything a reader should know that is not a number (a tail read below
    /// p99 for lack of samples, a count mismatch, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.push(Metric::new(name, value, samples));
    }

    /// Push a tail metric named for p99, and say so when the sample count
    /// only supported a lower quantile.
    pub fn push_tail(&mut self, name: &str, summary: &crate::stats::Summary) {
        self.push(name, summary.tail, summary.n);
        if summary.tail_q < 0.99 {
            self.notes.push(format!(
                "{name} read at q={:.4}: only {} samples",
                summary.tail_q, summary.n
            ));
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// A run is correct when nothing failed and the oracle actually ran.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.oracle_checks > 0 && self.attempted > 0
    }

    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn names_are_valid_and_unique(names: &[&str]) {
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    #[test]
    fn registry_is_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|(d, _)| d.name).collect();
        all.extend(PER_LAYER.iter().map(|d| d.name));
        all.extend(WORKLOADS.iter().map(|(name, _)| *name));
        names_are_valid_and_unique(&all);
        for (def, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for d in PER_LAYER.iter().chain(END_TO_END.iter().map(|(d, _)| d)) {
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        // setup_s carries the largest bound.
        let setup = END_TO_END.iter().find(|(d, _)| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|(_, b)| *b <= setup.1));
    }

    /// `BENCHMARK.json` is what the driver reads; this registry is what the
    /// program prints. They must list the same names, units and bounds.
    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = crate::server::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = json.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let field = |item: &Json, key: &str| item.get(key).unwrap().as_str().unwrap().to_string();
        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> =
            WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(workloads, expected);

        let e2e = json.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, (def, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(item, "name"), def.name);
            assert_eq!(field(item, "unit"), def.unit);
            assert_eq!(field(item, "better"), def.better.label());
            assert_eq!(item.get("bound").unwrap().as_f64().unwrap(), bound);
        }
        let layers = json.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, def) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(item, "name"), def.name);
            assert_eq!(field(item, "unit"), def.unit);
            assert_eq!(field(item, "better"), def.better.label());
        }
    }
}
