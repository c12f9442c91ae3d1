//! Parsers for what `anomex extract` and `anomex stream --verbose`
//! print. They read the text the CLI prints today; a CLI change that
//! breaks them fails the pass loudly (`PassFailure::Parse`) instead of
//! silently measuring nothing.

/// One "Anomaly extraction report" block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The interval named in the header line.
    pub interval: u64,
    /// The whole block, byte for byte — what the mode-vs-mode and
    /// pass-vs-pass comparisons look at.
    pub text: String,
    /// The item-set table, one rendered item list per row.
    pub itemsets: Vec<Vec<String>>,
}

/// One `stream --verbose` interval line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalLine {
    /// Interval index.
    pub index: u64,
    /// Flows in the interval.
    pub flows: u64,
    /// The pipeline thread's `process_micros`.
    pub micros: u64,
    /// `ALARM` vs `ok`.
    pub alarm: bool,
}

/// Everything one pass printed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PassOutput {
    /// The per-interval lines (`stream` only).
    pub lines: Vec<IntervalLine>,
    /// The reports, in print order.
    pub reports: Vec<Report>,
    /// Intervals processed, from the summary line.
    pub intervals: u64,
    /// Alarmed intervals, from the summary line.
    pub alarms: u64,
}

const REPORT_HEADER: &str = "Anomaly extraction report — interval ";

/// The unsigned integer that directly precedes `suffix` in `text`.
fn number_before(text: &str, suffix: &str) -> Option<u64> {
    let head = &text[..text.find(suffix)?];
    let digits = head
        .rsplit(|c: char| !c.is_ascii_digit())
        .next()
        .filter(|d| !d.is_empty())?;
    digits.parse().ok()
}

/// `interval  106  [95400000 ms, 96300000 ms)      9807 flows     10094 µs  ALARM`
fn parse_interval_line(line: &str) -> Result<IntervalLine, String> {
    let bad = || format!("bad interval line {line:?}");
    let rest = line.strip_prefix("interval ").ok_or_else(bad)?;
    let index = rest
        .split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(bad)?;
    let alarm = match rest.split_whitespace().last() {
        Some("ALARM") => true,
        Some("ok") => false,
        _ => return Err(bad()),
    };
    Ok(IntervalLine {
        index,
        flows: number_before(rest, " flows").ok_or_else(bad)?,
        micros: number_before(rest, " µs").ok_or_else(bad)?,
        alarm,
    })
}

/// The rows under the `#  support  class hint  item-set` heading.
fn parse_itemsets(block: &[&str]) -> Vec<Vec<String>> {
    block
        .iter()
        .skip_while(|l| !(l.trim_start().starts_with('#') && l.ends_with("item-set")))
        .skip(1)
        .map_while(|row| {
            let numbered = row.trim_start().starts_with(|c: char| c.is_ascii_digit());
            let items = row.split_once('{')?.1.strip_suffix('}')?;
            numbered.then(|| items.split(", ").map(str::to_string).collect())
        })
        .collect()
}

/// Parse one pass's standard output. Both modes print reports as blocks
/// closed by an empty line and end with a summary that counts intervals
/// and alarms; `stream --verbose` adds one line per interval.
pub fn parse_output(text: &str) -> Result<PassOutput, String> {
    let mut out = PassOutput::default();
    let mut summary = false;
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if let Some(rest) = line.strip_prefix(REPORT_HEADER) {
            let interval = rest
                .split_whitespace()
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("bad report header {line:?}"))?;
            let mut block = vec![line];
            block.extend(lines.by_ref().take_while(|l| !l.is_empty()));
            out.reports.push(Report {
                interval,
                itemsets: parse_itemsets(&block),
                text: block.join("\n"),
            });
        } else if line.starts_with("interval ") {
            out.lines.push(parse_interval_line(line)?);
        } else if line.starts_with("processed ")
            || line.starts_with("streamed ")
            || line.starts_with("fan-in: ")
        {
            let bad = || format!("bad summary line {line:?}");
            out.intervals = number_before(line, " merged intervals")
                .or_else(|| number_before(line, " intervals"))
                .ok_or_else(bad)?;
            out.alarms = number_before(line, " alarmed").ok_or_else(bad)?;
            summary = true;
        }
    }
    if !summary {
        return Err("no summary line (processed/streamed/fan-in)".into());
    }
    let alarm_lines = out.lines.iter().filter(|l| l.alarm).count() as u64;
    if !out.lines.is_empty() && (out.lines.len() as u64, alarm_lines) != (out.intervals, out.alarms)
    {
        return Err(format!(
            "{} interval lines, {alarm_lines} alarmed, but the summary counts {} and {}",
            out.lines.len(),
            out.intervals,
            out.alarms
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `anomex extract` (quiet, seed 1, scale 0.6).
    const EXTRACT: &str = "\
Anomaly extraction report — interval 106 (9807 flows, 780 suspicious after pre-filtering)
meta-data:
  srcIP: 10.12.0.42, 60.7.7.7
  srcPort: 33434
  dstPort: 445, 33435
  #    support          class hint  item-set
  1        420            Scanning  {srcIP=60.7.7.7, dstPort=445, protocol=6, #packets=1, #bytes=40}
  2        360  Network Experiment  {srcIP=10.12.0.42, srcPort=33434, dstPort=33435, protocol=17, #packets=3, #bytes=192}
apriori rounds:
  round 1: 0 candidates, 11 frequent, 0 kept as maximal
  round 2: 50 candidates, 25 frequent, 0 kept as maximal
classification cost reduction: 4904 (flows per item-set to classify)

processed 136 intervals, 1 alarmed (s = 50, Δ = 15 min, miner = apriori, threads = 1)
";

    /// Captured from `anomex stream --verbose --rules` with three inputs,
    /// cut to two intervals.
    const STREAM: &str = "\
interval   23  [1380000 ms, 1440000 ms)      7810 flows      4312 µs  ok
interval   24  [1440000 ms, 1500000 ms)     10231 flows     21877 µs  ALARM
Anomaly extraction report — interval 24 (10231 flows, 2412 suspicious after pre-filtering)
meta-data:
  dstPort: 7000
  #    support          class hint  item-set
  1       2400            Flooding  {dstIP=10.3.0.7, dstPort=7000, protocol=6}
association rules (2 over 2412 transactions, ranked by anomaly score):
  #    score    conf       lift  leverage  conviction  rule
  1    1.000   1.000       1.00    0.0000         inf  {dstIP=10.3.0.7} => {dstPort=7000} x2400
classification cost reduction: 10231 (flows per item-set to classify)
Per-source rule merge — 3 source(s), weighted support floors, re-scored
association rules: none passed the confidence/lift filters

fan-in: streamed 18041 flows from 3 sources into 2 merged intervals: 1 alarmed, 1 extracted (s = 800, Δ = 1 min, miner = apriori, threads = 1)
source 0 (a): 10000 flows, 0 late, 0 pre-origin, 0 stale
per-interval latency: p50 = 4312 µs, p95 = 21877 µs; dropped flows: 0 total
";

    #[test]
    fn extract_output_parses() {
        let out = parse_output(EXTRACT).unwrap();
        assert_eq!((out.intervals, out.alarms), (136, 1));
        assert!(out.lines.is_empty());
        assert_eq!(out.reports.len(), 1);
        let report = &out.reports[0];
        assert_eq!(report.interval, 106);
        assert_eq!(report.itemsets.len(), 2);
        assert_eq!(report.itemsets[0][..2], ["srcIP=60.7.7.7", "dstPort=445"]);
        assert_eq!(report.itemsets[1].len(), 6);
        assert!(report.text.starts_with(REPORT_HEADER));
        assert!(report.text.ends_with("(flows per item-set to classify)"));
    }

    #[test]
    fn stream_output_parses_lines_reports_and_the_merge_section() {
        let out = parse_output(STREAM).unwrap();
        assert_eq!((out.intervals, out.alarms), (2, 1));
        assert_eq!(
            out.lines,
            [
                IntervalLine {
                    index: 23,
                    flows: 7810,
                    micros: 4312,
                    alarm: false
                },
                IntervalLine {
                    index: 24,
                    flows: 10231,
                    micros: 21877,
                    alarm: true
                },
            ]
        );
        let report = &out.reports[0];
        assert_eq!(report.interval, 24);
        // Rule rows also carry braces; only the item-set table counts.
        assert_eq!(
            report.itemsets,
            [["dstIP=10.3.0.7", "dstPort=7000", "protocol=6"]]
        );
        assert!(report.text.contains("Per-source rule merge"));
    }

    #[test]
    fn malformed_output_is_an_error() {
        assert!(parse_output("").is_err(), "no summary");
        assert!(parse_output("interval x\nstreamed 1 flows into 1 intervals: 0 alarmed").is_err());
        let miscounted = "interval 0 [0 ms, 1 ms) 5 flows 7 µs ok\n\
                          streamed 5 flows into 2 intervals: 0 alarmed, 0 extracted";
        assert!(parse_output(miscounted)
            .unwrap_err()
            .contains("summary counts"));
    }
}
