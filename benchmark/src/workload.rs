//! The three workloads: what is generated, with which `anomex` options
//! it is replayed, and what was planted in it.
//!
//! Every trace comes from `anomex_traffic` and the run's seed alone, so
//! the program under test only ever sees generated NetFlow v5 bytes.
//! Sizes are set so that one `anomex` pass takes roughly 0.5–1 s: the
//! driver's time cap (70 runs in under an hour, three set-ups per run)
//! leaves ~25 s per run, and ten short passes per mode give a steadier
//! best-of-K than three long ones.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write as _};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use anomex_netflow::v5::V5Exporter;
use anomex_netflow::{FeatureValue, FlowFeature};
use anomex_traffic::{BackgroundConfig, EventId, EventParams, EventSpec, Scenario, ScenarioConfig};

use crate::json;

/// One benchmark workload. The names are fixed; later issues refer to
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 136 quarter-hour intervals of the paper-shaped two-week scenario:
    /// ingest- and detector-bound, one alarmed interval.
    Quiet,
    /// 120 one-minute intervals with a large event on every third
    /// measured interval: mining-bound.
    Alarm,
    /// Three exporters fanned in on one grid, rule layer on: the only
    /// workload on the merge path.
    Fanin,
}

/// The `anomex` pipeline options a workload is replayed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// `--interval-min`.
    pub interval_min: u64,
    /// `--training`.
    pub training: usize,
    /// `--support`.
    pub support: u64,
    /// `--rules`.
    pub rules: bool,
}

/// Which `anomex` subcommand replays the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `anomex extract`: slice a sorted trace.
    Extract,
    /// `anomex stream --verbose`: push flow by flow.
    Stream,
}

impl Mode {
    /// The subcommand name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Extract => "extract",
            Mode::Stream => "stream",
        }
    }
}

/// Intervals of the `quiet` trace (the first of the two-week scenario).
const QUIET_INTERVALS: u64 = 136;
/// Volume scale of the two-week scenario: 0.4 ≈ 1.07 M flows in 136
/// intervals.
const QUIET_SCALE: f64 = 0.4;
/// Intervals of the `alarm` and `fanin` traces.
const MINUTE_INTERVALS: u64 = 120;
/// Per-link background rates of `fanin`, relative to link 0, with each
/// link's exporter clock skew in ms.
const FANIN_LINKS: [(f64, u64); 3] = [(1.0, 0), (2.0 / 3.0, 437), (0.5, 874)];

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Quiet, Workload::Alarm, Workload::Fanin];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Quiet => "quiet",
            Workload::Alarm => "alarm",
            Workload::Fanin => "fanin",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, for `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Quiet => {
                "136 quarter-hour intervals, one alarm: ingest- and histogram-bound, so miner work must not show here"
            }
            Workload::Alarm => {
                "120 one-minute intervals with a large event on every third one: Apriori dominates, pre-filter, gather and render run 33 times, ingest barely shows"
            }
            Workload::Fanin => {
                "three skewed exporters merged on one grid with the rule layer on: the only workload on the k-way merge and per-source re-mining"
            }
        }
    }

    /// The pipeline options.
    pub fn params(self) -> Params {
        match self {
            // The CLI's defaults, spelled out.
            Workload::Quiet => Params {
                interval_min: 15,
                training: 48,
                support: 50,
                rules: false,
            },
            Workload::Alarm => Params {
                interval_min: 1,
                training: 20,
                support: 720,
                rules: false,
            },
            Workload::Fanin => Params {
                interval_min: 1,
                training: 20,
                support: 400,
                rules: true,
            },
        }
    }

    /// One scenario per exporter, with the exporter's clock skew.
    fn links(self, seed: u64) -> Vec<(Scenario, u64)> {
        match self {
            Workload::Quiet => vec![(Scenario::two_weeks(seed, QUIET_SCALE), 0)],
            Workload::Alarm => {
                let events = (0u64..)
                    .map(|k| (22 + 3 * k, k))
                    .take_while(|&(at, _)| at < MINUTE_INTERVALS)
                    .map(|(at, k)| cycled_event(k, at, 2160))
                    .collect();
                vec![(minute_scenario(seed, 3600, events), 0)]
            }
            Workload::Fanin => FANIN_LINKS
                .iter()
                .enumerate()
                .map(|(i, &(rate, skew))| {
                    let events = if i == 0 {
                        (0u64..)
                            .map(|k| (24 + 6 * k, k))
                            .take_while(|&(at, _)| at < MINUTE_INTERVALS)
                            .map(|(at, k)| cycled_event(k, at, 1200))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    // Each link sees its own traffic: its own seed.
                    let link_seed = seed ^ 0x5EED_0001_u64.wrapping_mul(i as u64 + 1);
                    let flows = (1800.0 * rate) as u64;
                    (minute_scenario(link_seed, flows, events), skew)
                })
                .collect(),
        }
    }

    /// How many intervals of each link's scenario are written.
    fn intervals(self) -> u64 {
        match self {
            Workload::Quiet => QUIET_INTERVALS,
            Workload::Alarm | Workload::Fanin => MINUTE_INTERVALS,
        }
    }

    /// The `anomex` arguments that replay `inputs` in `mode` on
    /// `threads` pool workers.
    pub fn cli_args(self, mode: Mode, inputs: &[PathBuf], threads: usize) -> Vec<String> {
        let p = self.params();
        let mut args = vec![mode.name().to_string()];
        for input in inputs {
            args.push("--in".into());
            args.push(input.display().to_string());
        }
        for (key, value) in [
            ("--interval-min", p.interval_min.to_string()),
            ("--training", p.training.to_string()),
            ("--support", p.support.to_string()),
            ("--threads", threads.to_string()),
        ] {
            args.push(key.into());
            args.push(value);
        }
        if p.rules {
            args.push("--rules".into());
        }
        if mode == Mode::Stream {
            args.push("--verbose".into());
        }
        args
    }
}

/// A one-minute-interval scenario with `small`-like stationary
/// background (short training windows cannot calibrate σ̂ against the
/// full composition drift) and the given events.
fn minute_scenario(seed: u64, flows_per_interval: u64, events: Vec<EventSpec>) -> Scenario {
    let background = BackgroundConfig {
        flows_per_interval,
        diurnal: false,
        noise: 0.03,
        mix_drift: 0.05,
        mix_seed: seed ^ 0xD1F7,
        ..BackgroundConfig::default()
    };
    let config = ScenarioConfig {
        seed,
        intervals: MINUTE_INTERVALS,
        interval_ms: 60_000,
        background,
    };
    Scenario::new(config, events)
}

/// The `k`-th planted event, cycling through the seven Table IV classes
/// with endpoints that differ from event to event.
fn cycled_event(k: u64, interval: u64, flows: u64) -> EventSpec {
    let b = k as u8;
    let params = match k % 7 {
        0 => EventParams::Flooding {
            sources: vec![Ipv4Addr::new(91, b, 1, 1), Ipv4Addr::new(91, b, 1, 2)],
            victim: Ipv4Addr::new(10, 3, b, 7),
            port: 7000 + k as u16,
        },
        1 => EventParams::Scanning {
            scanner: Ipv4Addr::new(60, b, 7, 7),
            port: [445, 22, 3389, 23, 1433, 5900, 139][(k / 7 % 7) as usize],
        },
        2 => EventParams::Backscatter {
            port: 9022 + 10 * k as u16,
        },
        3 => EventParams::DDoS {
            victim: Ipv4Addr::new(10, 5, b, 80),
            port: if k.is_multiple_of(2) { 80 } else { 53 },
            attackers: 800,
        },
        4 => EventParams::NetworkExperiment {
            node: Ipv4Addr::new(10, 12, b, 42),
            src_port: 33434,
            dst_port: 33435 + k as u16,
        },
        5 => EventParams::Spam {
            servers: vec![Ipv4Addr::new(10, 8, b, 25), Ipv4Addr::new(10, 8, b, 26)],
            senders: 60,
        },
        _ => EventParams::Unknown {
            a: Ipv4Addr::new(10, 13, b, 1),
            b: Ipv4Addr::new(185, 44, b, 9),
        },
    };
    EventSpec {
        id: EventId(k as u32),
        start_interval: interval,
        duration: 1,
        flows_per_interval: flows,
        params,
    }
}

/// One planted event as the output checker needs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantedEvent {
    /// The interval it was planted in (= the index the CLI reports).
    pub interval: u64,
    /// Its Table IV class.
    pub class: String,
    /// The item-sets that pin it: the event counts as extracted when one
    /// reported item-set of its interval contains every item of one of
    /// these, in the CLI's own rendering (`dstPort=7000`).
    pub signatures: Vec<Vec<String>>,
}

/// The items every flow of an event carries — what a maximal item-set
/// mined from its flows must contain. (`EventSpec::signature_values`
/// lists every value an analyst would recognise, which for a flood
/// includes each source; no single flow carries them all.)
fn signatures(params: &EventParams) -> Vec<Vec<String>> {
    let ip = |f: FlowFeature, a: &Ipv4Addr| FeatureValue::new(f, u64::from(u32::from(*a)));
    let port = |f: FlowFeature, p: u16| FeatureValue::new(f, u64::from(p));
    let sets: Vec<Vec<FeatureValue>> = match params {
        EventParams::Flooding {
            victim, port: p, ..
        }
        | EventParams::DDoS {
            victim, port: p, ..
        } => {
            vec![vec![
                ip(FlowFeature::DstIp, victim),
                port(FlowFeature::DstPort, *p),
            ]]
        }
        EventParams::Backscatter { port: p } => vec![vec![port(FlowFeature::DstPort, *p)]],
        EventParams::NetworkExperiment {
            node,
            src_port,
            dst_port,
        } => vec![vec![
            ip(FlowFeature::SrcIp, node),
            port(FlowFeature::SrcPort, *src_port),
            port(FlowFeature::DstPort, *dst_port),
        ]],
        EventParams::Scanning { scanner, port: p } => {
            vec![vec![
                ip(FlowFeature::SrcIp, scanner),
                port(FlowFeature::DstPort, *p),
            ]]
        }
        EventParams::DistributedScan { port: p, .. } => vec![vec![port(FlowFeature::DstPort, *p)]],
        EventParams::Spam { .. } => vec![vec![port(FlowFeature::DstPort, 25)]],
        // A two-way exchange: either direction pins it.
        EventParams::Unknown { a, b } => vec![
            vec![ip(FlowFeature::SrcIp, a), ip(FlowFeature::DstIp, b)],
            vec![ip(FlowFeature::SrcIp, b), ip(FlowFeature::DstIp, a)],
        ],
    };
    sets.into_iter()
        .map(|set| set.iter().map(ToString::to_string).collect())
        .collect()
}

/// What was generated, for the checker and for `truth.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truth {
    /// Flows over all trace files.
    pub flows: u64,
    /// Bytes over all trace files.
    pub bytes: u64,
    /// FNV-1a over all trace bytes, in file order.
    pub digest: u64,
    /// Intervals written per exporter.
    pub intervals: u64,
    /// Events planted after the detector's training period.
    pub events: Vec<PlantedEvent>,
}

impl Truth {
    fn to_json(&self) -> String {
        let events = self.events.iter().map(|e| {
            json::object([
                ("interval", e.interval.to_string()),
                ("class", json::string(&e.class)),
                (
                    "signatures",
                    json::array(
                        e.signatures
                            .iter()
                            .map(|s| json::array(s.iter().map(|i| json::string(i)))),
                    ),
                ),
            ])
        });
        json::object([
            ("flows", self.flows.to_string()),
            ("bytes", self.bytes.to_string()),
            ("digest", json::string(&format!("{:016x}", self.digest))),
            ("intervals", self.intervals.to_string()),
            ("events", json::array(events)),
        ])
    }
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Generate a workload from the seed alone into `dir` (created): one
/// NetFlow v5 file per exporter plus `truth.json`. Returns the trace
/// paths in `--in` order and the truth.
///
/// Interval by interval, straight to disk: the harness must stay small,
/// because a child's `ru_maxrss` starts at its parent's peak resident
/// set (the kernel records the pre-`exec` address space), and a harness
/// holding a 50 MB trace would put a floor under `*_peak_rss_mb`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> io::Result<(Vec<PathBuf>, Truth)> {
    fs::create_dir_all(dir)?;
    let intervals = workload.intervals();
    let training = workload.params().training as u64;
    let mut truth = Truth {
        flows: 0,
        bytes: 0,
        digest: 0xCBF2_9CE4_8422_2325,
        intervals,
        events: Vec::new(),
    };
    let mut paths = Vec::new();
    for (link, (scenario, skew_ms)) in workload.links(seed).into_iter().enumerate() {
        let path = dir.join(format!("link{link}.nfv5"));
        let mut file = BufWriter::new(File::create(&path)?);
        let mut exporter = V5Exporter::new();
        for i in 0..intervals {
            let mut flows = scenario.generate(i).flows;
            for flow in &mut flows {
                flow.start_ms += skew_ms;
                flow.end_ms += skew_ms;
            }
            truth.flows += flows.len() as u64;
            for datagram in exporter.export(&flows) {
                truth.bytes += datagram.len() as u64;
                truth.digest = fnv1a(truth.digest, &datagram);
                file.write_all(&datagram)?;
            }
        }
        file.flush()?;
        paths.push(path);
        // The detector needs `training` first differences, i.e.
        // `training + 1` intervals, before it can alarm.
        truth.events.extend(
            scenario
                .events()
                .iter()
                .filter(|e| e.start_interval > training && e.start_interval < intervals)
                .map(|e| PlantedEvent {
                    interval: e.start_interval,
                    class: e.class().to_string(),
                    signatures: signatures(&e.params),
                }),
        );
    }
    truth.events.sort_by_key(|e| e.interval);
    fs::write(dir.join("truth.json"), truth.to_json() + "\n")?;
    Ok((paths, truth))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generated(w: Workload, seed: u64, tag: &str) -> (Vec<Vec<u8>>, Truth) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-workload/{}-{seed}-{tag}", w.name()));
        let (paths, truth) = generate(w, seed, &dir).unwrap();
        let traces = paths.iter().map(|p| fs::read(p).unwrap()).collect();
        (traces, truth)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in [Workload::Alarm, Workload::Fanin] {
            let (a_bytes, a) = generated(w, 7, "a");
            let (b_bytes, b) = generated(w, 7, "b");
            let (_, c) = generated(w, 8, "c");
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(a_bytes, b_bytes, "{}", w.name());
            assert_ne!(a.digest, c.digest, "{}", w.name());
            let on_disk: u64 = a_bytes.iter().map(|t| t.len() as u64).sum();
            assert_eq!(a.bytes, on_disk, "{}", w.name());
        }
    }

    #[test]
    fn flow_counts_stay_inside_the_window() {
        // ± 5 % around the sizes the README quotes.
        for (w, expected) in [
            (Workload::Quiet, 1_070_000.0),
            (Workload::Alarm, 503_000.0),
            (Workload::Fanin, 487_000.0),
        ] {
            for seed in [1, 2] {
                let flows = generated(w, seed, "size").1.flows as f64;
                assert!(
                    (flows / expected - 1.0).abs() < 0.05,
                    "{} seed {seed}: {flows} flows",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn planted_events_follow_training_and_carry_signatures() {
        let alarm = generated(Workload::Alarm, 3, "events").1;
        assert_eq!(alarm.events.len(), 33, "every third interval from 22");
        assert!(alarm
            .events
            .iter()
            .all(|e| e.interval > 20 && e.interval % 3 == 1));
        assert_eq!(alarm.events[0].class, "Flooding");
        assert_eq!(
            alarm.events[0].signatures,
            vec![vec![
                "dstIP=10.3.0.7".to_string(),
                "dstPort=7000".to_string()
            ]]
        );
        assert_eq!(
            alarm.events[6].signatures.len(),
            2,
            "Unknown: either direction"
        );
        let (traces, fanin) = generated(Workload::Fanin, 3, "events");
        assert_eq!(traces.len(), 3);
        assert_eq!(fanin.events.len(), 16, "every sixth interval from 24");
        let quiet = generated(Workload::Quiet, 3, "events").1;
        assert_eq!(quiet.events.len(), 2, "the two events of the first slot");
    }

    #[test]
    fn cli_args_spell_out_every_option() {
        let inputs = [PathBuf::from("a.nfv5"), PathBuf::from("b.nfv5")];
        let args = Workload::Fanin.cli_args(Mode::Stream, &inputs, 1);
        assert_eq!(
            args.join(" "),
            "stream --in a.nfv5 --in b.nfv5 --interval-min 1 --training 20 \
             --support 400 --threads 1 --rules --verbose"
        );
        let args = Workload::Quiet.cli_args(Mode::Extract, &inputs[..1], 2);
        assert_eq!(
            args.join(" "),
            "extract --in a.nfv5 --interval-min 15 --training 48 --support 50 --threads 2"
        );
    }

    #[test]
    fn truth_json_names_every_field() {
        let truth = Truth {
            flows: 3,
            bytes: 168,
            digest: 0xAB,
            intervals: 1,
            events: vec![PlantedEvent {
                interval: 22,
                class: "Scanning".into(),
                signatures: vec![vec!["srcIP=1.2.3.4".into(), "dstPort=22".into()]],
            }],
        };
        assert_eq!(
            truth.to_json(),
            r#"{"flows": 3, "bytes": 168, "digest": "00000000000000ab", "intervals": 1, "events": [{"interval": 22, "class": "Scanning", "signatures": [["srcIP=1.2.3.4", "dstPort=22"]]}]}"#
        );
    }
}
