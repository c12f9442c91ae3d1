//! Online operation (paper §II: "the anomaly detector triggers the
//! anomaly extraction process upon detecting an anomaly"), wired the way a
//! real deployment would be:
//!
//! ```text
//! [exporter thread]  --NetFlow v5 datagrams-->  [collector/extractor thread]  --reports-->  [main]
//! ```
//!
//! The exporter thread serializes a synthetic workload into real NetFlow
//! v5 datagrams (30 records each). The collector thread decodes them,
//! reassembles 1-minute measurement intervals on the fly, and runs the
//! detection + extraction pipeline. Extraction reports stream back to the
//! main thread as they happen. Everything is plain threads and
//! crossbeam channels — the pipeline is CPU-bound, so no async runtime is
//! involved.
//!
//! ```sh
//! cargo run --release --example live_monitor
//! ```

use std::thread;

use anomex::core::render_report;
use anomex::netflow::v5::{V5Collector, V5Exporter};
use anomex::prelude::*;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

/// Pipeline statistics shared across threads.
#[derive(Debug, Default)]
struct Stats {
    datagrams: u64,
    flows: u64,
    alarms: u64,
}

fn exporter_thread(scenario: Scenario, tx: Sender<bytes::Bytes>, stats: &Mutex<Stats>) {
    let mut exporter = V5Exporter::new();
    for i in 0..scenario.interval_count() {
        let interval = scenario.generate(i);
        for datagram in exporter.export(&interval.flows) {
            {
                let mut s = stats.lock();
                s.datagrams += 1;
            }
            if tx.send(datagram).is_err() {
                return; // collector hung up
            }
        }
    }
}

fn collector_thread(
    rx: Receiver<bytes::Bytes>,
    reports: Sender<String>,
    interval_ms: u64,
    stats: &Mutex<Stats>,
) {
    let config = ExtractionConfig {
        interval_ms,
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        ..ExtractionConfig::default()
    };
    let mut pipeline = Engine::sequential(config).unwrap();
    let mut assembler = IntervalAssembler::new(0, interval_ms);

    let process =
        |flows: Vec<FlowRecord>, pipeline: &mut Engine, stats: &Mutex<Stats>| -> Option<String> {
            let outcome = pipeline.process(&flows);
            if outcome.observation.alarm {
                stats.lock().alarms += 1;
            }
            outcome.extraction.map(|e| render_report(&e))
        };

    let mut collector = V5Collector::new();
    for datagram in rx {
        collector
            .ingest(&datagram)
            .expect("exporter sends well-formed datagrams");
        let flows = std::mem::take(&mut collector).into_flows();
        collector = V5Collector::new();
        stats.lock().flows += flows.len() as u64;
        for flow in flows {
            for closed in assembler.push(flow) {
                if let Some(report) = process(closed.flows, &mut pipeline, stats) {
                    if reports.send(report).is_err() {
                        return;
                    }
                }
            }
        }
    }
    // End of stream: flush the last interval.
    if let Some(closed) = assembler.flush() {
        if let Some(report) = process(closed.flows, &mut pipeline, stats) {
            let _ = reports.send(report);
        }
    }
}

fn main() {
    let scenario = Scenario::small(7);
    let interval_ms = scenario.interval_ms();
    let stats = Box::leak(Box::new(Mutex::new(Stats::default())));

    // Bounded channels give natural backpressure: the exporter cannot run
    // unboundedly ahead of the collector.
    let (dgram_tx, dgram_rx) = bounded::<bytes::Bytes>(1024);
    let (report_tx, report_rx) = bounded::<String>(16);

    let exporter = thread::spawn({
        let stats = &*stats;
        move || exporter_thread(scenario, dgram_tx, stats)
    });
    let collector = thread::spawn({
        let stats = &*stats;
        move || collector_thread(dgram_rx, report_tx, interval_ms, stats)
    });

    // Reports stream in while the pipeline is still running.
    for report in report_rx {
        println!("{report}");
    }

    exporter.join().expect("exporter thread panicked");
    collector.join().expect("collector thread panicked");

    let s = stats.lock();
    println!(
        "stream complete: {} NetFlow v5 datagrams, {} flows, {} interval alarms",
        s.datagrams, s.flows, s.alarms
    );
}
