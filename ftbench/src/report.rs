//! The metric catalogue, the per-workload digest and the result line.

use std::fmt::Write;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("refs_per_s", "1/s"),
    ("cases_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ecp_overhead_pct", "%"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("sim.queue_ns_per_op", "ns"),
    ("sim.queue_share", "fraction"),
    ("sim.events_est", "count"),
    ("workloads.ns_per_ref", "ns"),
    ("workloads.share", "fraction"),
    ("mem.probe_ns_per_ref", "ns"),
    ("mem.share", "fraction"),
    ("net.send_ns_per_msg", "ns"),
    ("net.share", "fraction"),
    ("net.msgs_per_kref", "msgs/kref"),
    ("net.contention_cycles_per_msg", "cycles"),
    ("net.link_util_max", "fraction"),
    ("core.ecp_host_ratio", "ratio"),
    ("core.misses_per_kref", "misses/kref"),
    ("core.checkpoints", "count"),
    ("core.create_pct", "%"),
    ("core.commit_pct", "%"),
    ("core.pollution_pct", "%"),
    ("core.injections_per_10kref", "inj/10kref"),
    ("machine.other_share", "fraction"),
    ("machine.setup_ms_per_node", "ms"),
    ("machine.snapshot_us_per_node", "us"),
    ("recovery.host_ms_per_fault.transient", "ms"),
    ("recovery.host_ms_per_fault.permanent", "ms"),
    ("recovery.host_ms_per_fault.nested", "ms"),
    ("recovery.rollback_cycles_p50", "cycles"),
    ("recovery.reconfig_cycles_p50", "cycles"),
    ("protocol.retries_per_loss_case", "count"),
    ("campaign.golden_share", "fraction"),
    ("campaign.fork_ms", "ms"),
    ("chaos.case_ms", "ms"),
    ("chaos.unrecoverable_frac", "fraction"),
    ("trace.overhead_pct", "%"),
];

/// Simulated statistics of one workload instance. Deterministic for a
/// seed: a change that only speeds the simulator up must leave it
/// unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Simulated cycles, summed over the instance's machine runs.
    pub total_cycles: u64,
    /// Measured (post-warmup) references.
    pub refs: u64,
    /// Read plus write misses.
    pub misses: u64,
    /// Interconnect messages.
    pub messages: u64,
    /// Recovery points established.
    pub checkpoints: u64,
    /// Chaos verdicts: passed cases.
    pub pass: u64,
    /// Chaos verdicts: certified unrecoverable cases.
    pub unrecoverable: u64,
    /// Chaos verdicts: oracle failures.
    pub fail: u64,
}

impl Digest {
    /// Adds one machine run's statistics.
    pub fn add_run(&mut self, m: &ftcoma_machine::RunMetrics) {
        self.total_cycles += m.total_cycles;
        self.refs += m.refs;
        self.misses += m.read_misses + m.write_misses;
        self.messages += m.net_messages;
        self.checkpoints += m.checkpoints;
    }

    /// The digest line (`digest <workload> key=value ...`).
    pub fn line(&self, workload: &str, seed: u64) -> String {
        format!(
            "digest {workload} seed={seed} total_cycles={} refs={} misses={} messages={} \
             checkpoints={} pass={} unrecoverable={} fail={}",
            self.total_cycles,
            self.refs,
            self.misses,
            self.messages,
            self.checkpoints,
            self.pass,
            self.unrecoverable,
            self.fail
        )
    }
}

/// What one benchmark run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// `(name, unit, value)` in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Operations judged (machine runs, or chaos cases).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Why each failure failed.
    pub problems: Vec<String>,
    /// Simulated statistics of the first instance.
    pub digest: Digest,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one judged operation; `Err` counts as a failure.
    pub fn judge(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.problems.push(why);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Sets metric `name` from `catalogue`, which must list it.
    pub fn set(&mut self, catalogue: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(n, unit) = catalogue
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.push((n, unit, value));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `catalogue`, in catalogue order.
    ///
    /// # Errors
    ///
    /// Names a catalogue metric that was never set or is not finite.
    pub fn result_line(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|&(_, _, v)| v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_in_order() {
        let mut r = Report::default();
        r.judge(Ok(()));
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(&END_TO_END, name, 1.5 + i as f64);
        }
        let line = r.result_line(&END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"refs_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
        assert!(r.result_line(&PER_LAYER).is_err());
    }

    #[test]
    fn failures_make_the_report_incorrect() {
        let mut r = Report::default();
        r.judge(Ok(()));
        r.judge(Err("boom".into()));
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
