//! The benchmark's contract: which metrics exist, their units,
//! directions and bounds. `BENCHMARK.json` is generated from these
//! tables (`benchmark manifest`) and a unit test holds the file to
//! them, so the harness, `selfcheck` and the driver read one definition.

use crate::json;
use crate::workload::Workload;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is *worse* (negative
    /// when it is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Its name in the result line.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which it may get worse.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// How long one run measures (`--seconds`), as the driver passes it.
pub const RUN_SECONDS: u64 = 22;

/// What a user of `anomex` sees. The timing bounds are as wide as the
/// contract allows: the host this was measured on has slow phases of
/// several minutes in which everything, best-of-K minima included, runs
/// 10–25 % slower, and a set of ten runs that catches one moves its
/// median by half of that (see the README's selfcheck table).
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("extract_flows_per_s", "flows/s", Higher, 0.25),
    e2e("stream_flows_per_s", "flows/s", Higher, 0.25),
    e2e("stream_interval_p50_ms", "ms", Lower, 0.25),
    e2e("stream_interval_p90_ms", "ms", Lower, 0.25),
    e2e("extract_peak_rss_mb", "MiB", Lower, 0.05),
    e2e("stream_peak_rss_mb", "MiB", Lower, 0.05),
    e2e("event_recall", "fraction", Higher, 0.02),
];

/// What the traced run reports, layer by layer (layer = crate/module).
pub const PER_LAYER: [Metric; 63] = [
    // netflow
    layer("netflow.decode.ns_per_flow", "ns/flow", Lower),
    layer("netflow.decode.allocs_per_kflow", "allocs/kflow", Lower),
    layer("netflow.slice.ns_per_flow", "ns/flow", Lower),
    layer("netflow.transpose.ns_per_flow", "ns/flow", Lower),
    layer("netflow.decode_columns.ns_per_flow", "ns/flow", Lower),
    layer("netflow.assemble.ns_per_flow", "ns/flow", Lower),
    layer("netflow.merge.ns_per_flow", "ns/flow", Lower),
    layer("netflow.record_bytes_per_flow", "bytes/flow", Lower),
    layer("netflow.columns_bytes_per_flow", "bytes/flow", Lower),
    // detector
    layer("detector.histogram.ns_per_flow", "ns/flow", Lower),
    layer("detector.histogram.allocs_per_flow", "allocs/flow", Lower),
    layer(
        "detector.histogram.alloc_bytes_per_flow",
        "bytes/flow",
        Lower,
    ),
    layer("detector.score_vote.ms_per_interval", "ms/interval", Lower),
    layer("detector.alarm_rate", "fraction", Lower),
    layer("detector.metadata_values_per_alarm", "count", Lower),
    layer("detector.state_bytes", "bytes", Lower),
    layer("detector.avx2_active", "count", Higher),
    // core
    layer("core.prefilter.ns_per_flow", "ns/flow", Lower),
    layer("core.prefilter.selectivity", "fraction", Lower),
    layer("core.gather.ns_per_suspicious_flow", "ns/flow", Lower),
    layer("core.render.us_per_report", "us/report", Lower),
    layer("core.source_rules.ms_per_alarm", "ms/alarm", Lower),
    layer("core.engine.quiet_ms_per_interval", "ms/interval", Lower),
    layer("core.engine.alarm_ms_per_interval", "ms/interval", Lower),
    layer("core.engine.overhead_share", "fraction", Lower),
    layer("core.engine.allocs_per_interval", "allocs/interval", Lower),
    layer("core.streaming.push_ns_per_flow", "ns/flow", Lower),
    layer("core.streaming.blocked_share", "fraction", Lower),
    layer("core.streaming.emit_p50_ms", "ms", Lower),
    layer("core.streaming.emit_p90_ms", "ms", Lower),
    layer("core.snapshot.ms", "ms", Lower),
    layer("core.snapshot.bytes", "bytes", Lower),
    // mining
    layer("mining.apriori.ms_per_alarm", "ms/alarm", Lower),
    layer("mining.apriori.ns_per_transaction", "ns/tx", Lower),
    layer("mining.apriori.allocs_per_alarm", "allocs/alarm", Lower),
    layer("mining.candidates_per_alarm", "count", Lower),
    layer("mining.frequent_per_alarm", "count", Lower),
    layer("mining.maximal_per_alarm", "count", Lower),
    layer("mining.useful_ratio", "fraction", Higher),
    layer("mining.fpgrowth.ms_per_alarm", "ms/alarm", Lower),
    layer("mining.eclat.ms_per_alarm", "ms/alarm", Lower),
    layer("mining.rules.ms_per_alarm", "ms/alarm", Lower),
    layer("mining.rules.kept_per_alarm", "count", Lower),
    // cli
    layer("cli.startup_ms", "ms", Lower),
    layer("cli.stream_over_extract.wall_ratio", "ratio", Lower),
    layer("cli.stream.cpu_over_wall", "ratio", Higher),
    layer("cli.threads2.wall_ratio", "ratio", Lower),
    layer("cli.threads2.cpu_ratio", "ratio", Lower),
    // shares of the replica's extract pass, and bookkeeping
    layer("share.ingest", "fraction", Lower),
    layer("share.transpose", "fraction", Lower),
    layer("share.histogram", "fraction", Lower),
    layer("share.score_vote", "fraction", Lower),
    layer("share.prefilter_gather", "fraction", Lower),
    layer("share.mining", "fraction", Lower),
    layer("share.render", "fraction", Lower),
    layer("trace.coverage_ratio", "fraction", Higher),
    layer("trace.replica_over_cli", "ratio", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("noise.extract_pass_spread", "fraction", Lower),
    layer("noise.stream_pass_spread", "fraction", Lower),
    layer("report.itemsets_per_alarm", "count", Lower),
    layer("report.fp_itemsets_per_alarm", "count", Lower),
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let strings = |items: &[&str]| json::array(items.iter().map(|s| json::string(s)));
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", json::string(m.name)),
            ("unit", json::string(m.unit)),
            ("better", json::string(m.better.name())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", json::number(bound)));
        }
        format!("    {}", json::object(fields))
    };
    let block = |rows: Vec<String>| format!("[\n{}\n  ]", rows.join(",\n"));
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            let fields = [
                ("name", json::string(w.name())),
                ("why", json::string(w.why())),
            ];
            format!("    {}", json::object(fields))
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&command),
        strings(&["benchmark"]),
        block(workloads),
        block(END_TO_END.iter().map(metric).collect()),
        block(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_tables_keep_the_contracts_limits() {
        let mut names = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(names.insert(m.name), "{} is used twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            let ok = |s: &str, extra: &str| {
                s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
            };
            assert!(
                ok(m.name, "_.-") && ok(m.unit, "_/%.-"),
                "{} [{}]",
                m.name,
                m.unit
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "set-up has the largest bound"
        );
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(Better::Lower.worsening(10.0, 11.0), 0.1);
        assert_eq!(Better::Higher.worsening(10.0, 9.0), 0.1);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }
}
