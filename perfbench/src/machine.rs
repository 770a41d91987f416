//! Machine fingerprint and process memory, so numbers taken on different
//! machines are never compared silently.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// What identifies the machine and the code a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Cores available to this process.
    pub cores: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// Commit of the checkout, or `unknown` when it is not a git checkout.
    pub git_rev: String,
    /// Nanoseconds per step of a fixed integer loop (median of five runs):
    /// a single-core speed probe that differs between machines.
    pub calibration_ns: f64,
}

impl Fingerprint {
    /// Probe the current machine and checkout (the working directory).
    #[must_use]
    pub fn probe() -> Self {
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_owned()),
            git_rev: git_rev(Path::new(".")).unwrap_or_else(|| "unknown".to_owned()),
            calibration_ns: calibrate(),
        }
    }

    /// The fingerprint as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"cores\":");
        let _ = write!(out, "{},\"cpu_model\":", self.cores);
        contrarc_obs::json::escape_into(&mut out, &self.cpu_model);
        out.push_str(",\"git_rev\":");
        contrarc_obs::json::escape_into(&mut out, &self.git_rev);
        let _ = write!(out, ",\"calibration_ns\":{}}}", self.calibration_ns);
        out
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// Resolve `HEAD` of the git checkout at `root` without running git.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(rev, _)| rev.to_owned())
}

/// Nanoseconds per step of a fixed xorshift-multiply loop.
fn calibrate() -> f64 {
    const STEPS: u64 = 2_000_000;
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut x: u64 = std::hint::black_box(0x9e37_79b9_7f4a_7c15);
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        std::hint::black_box(x);
        samples.push(t.elapsed().as_secs_f64() * 1e9 / STEPS as f64);
    }
    crate::stats::median(&samples)
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_serializes_as_json() {
        let fp = Fingerprint {
            cores: 2,
            cpu_model: "Some \"CPU\"".to_owned(),
            git_rev: "unknown".to_owned(),
            calibration_ns: 1.25,
        };
        let doc = contrarc_obs::json::parse(&fp.to_json()).unwrap();
        assert_eq!(doc.get("cores").and_then(|v| v.as_num()), Some(2.0));
        assert_eq!(
            doc.get("cpu_model").and_then(|v| v.as_str()),
            Some("Some \"CPU\"")
        );
        assert_eq!(
            doc.get("calibration_ns").and_then(|v| v.as_num()),
            Some(1.25)
        );
    }

    #[test]
    fn git_rev_is_none_outside_a_checkout() {
        // Tests run from the package directory, whose `src` holds no `.git`.
        assert_eq!(git_rev(Path::new("src")), None);
    }
}
