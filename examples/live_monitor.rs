//! Online operation (paper §II: "the anomaly detector triggers the
//! anomaly extraction process upon detecting an anomaly"), wired the way a
//! real deployment would be:
//!
//! ```text
//! [exporter thread]  --NetFlow v5 datagrams-->  [collector/extractor thread]  --reports-->  [main]
//! ```
//!
//! The exporter thread serializes a synthetic workload into real NetFlow
//! v5 datagrams (30 records each). The collector thread decodes them and
//! pushes every flow into the streaming engine, which reassembles
//! 1-minute measurement intervals on the fly and runs the detection +
//! extraction pipeline on its own thread. Extraction reports stream back
//! to the main thread as they happen. Everything is plain threads and
//! crossbeam channels — the pipeline is CPU-bound, so no async runtime is
//! involved.
//!
//! ```sh
//! cargo run --release --example live_monitor
//! ```

use std::thread;

use anomex::core::render_report;
use anomex::netflow::v5::{decode_datagram, V5Exporter};
use anomex::prelude::*;
use crossbeam::channel::{bounded, Receiver, Sender};

/// Export the workload as NetFlow v5 datagrams; returns how many it sent.
fn exporter_thread(scenario: Scenario, tx: Sender<bytes::Bytes>) -> u64 {
    let mut exporter = V5Exporter::new();
    let mut datagrams = 0;
    for i in 0..scenario.interval_count() {
        let interval = scenario.generate(i);
        for datagram in exporter.export(&interval.flows) {
            if tx.send(datagram).is_err() {
                return datagrams; // collector hung up
            }
            datagrams += 1;
        }
    }
    datagrams
}

/// Decode datagrams into the streaming engine (one exporter) and send
/// every extraction report on as its interval closes; returns the
/// end-of-stream summary.
fn collector_thread(
    rx: Receiver<bytes::Bytes>,
    reports: Sender<String>,
    interval_ms: u64,
) -> MultiStreamSummary {
    let config = ExtractionConfig {
        interval_ms,
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        ..ExtractionConfig::default()
    };
    let exporter = SourceId(0);
    let mut engine = MultiSourceExtractor::try_new(
        config,
        std::num::NonZeroUsize::MIN,
        &[SourceSpec::new(exporter, 0)],
        None,
    )
    .unwrap();
    let send = |events: Vec<MultiStreamEvent>| {
        for event in events {
            if let Some(extraction) = &event.event.outcome.extraction {
                // The main thread only stops listening at end of stream.
                let _ = reports.send(render_report(extraction));
            }
        }
    };

    for datagram in rx {
        let decoded = decode_datagram(&datagram).expect("exporter sends well-formed datagrams");
        for flow in decoded.flows {
            send(engine.push(exporter, flow));
        }
    }
    // End of stream: flush the last interval.
    let (tail, summary) = engine.finish();
    send(tail);
    summary
}

fn main() {
    let scenario = Scenario::small(7);
    let interval_ms = scenario.interval_ms();

    // Bounded channels give natural backpressure: the exporter cannot run
    // unboundedly ahead of the collector.
    let (dgram_tx, dgram_rx) = bounded::<bytes::Bytes>(1024);
    let (report_tx, report_rx) = bounded::<String>(16);

    let exporter = thread::spawn(move || exporter_thread(scenario, dgram_tx));
    let collector = thread::spawn(move || collector_thread(dgram_rx, report_tx, interval_ms));

    // Reports stream in while the pipeline is still running.
    for report in report_rx {
        println!("{report}");
    }

    let datagrams = exporter.join().expect("exporter thread panicked");
    let summary = collector.join().expect("collector thread panicked");
    println!(
        "stream complete: {datagrams} NetFlow v5 datagrams, {} flows, {} interval alarms",
        summary.total_flows, summary.alarms
    );
}
