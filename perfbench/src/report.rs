//! Metric collection, order statistics and the result line.

use std::fmt::Write as _;

/// The metrics one run reports, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`; a later record of the same name wins.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.retain(|(n, ..)| n != name);
        self.entries.push((name.to_owned(), value, unit));
    }

    /// Removes and returns the value recorded under `name`.
    pub fn take(&mut self, name: &str) -> Option<f64> {
        let i = self.entries.iter().position(|(n, ..)| n == name)?;
        Some(self.entries.remove(i).1)
    }

    /// Names whose values are not finite numbers.
    pub fn non_finite(&self) -> Vec<String> {
        self.entries.iter().filter(|(_, v, _)| !v.is_finite()).map(|(n, ..)| n.clone()).collect()
    }

    /// The run's final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips,
            // i.e. every digit the measurement has.
            write!(line, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        line
    }
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// FNV-1a-64 over a byte stream, for the drain-outcome digest.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian) into the hash.
    pub fn feed_u64(&mut self, x: u64) {
        self.feed(&x.to_le_bytes());
    }
}
