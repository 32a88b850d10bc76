//! The host and run record printed with every result, and the per-thread
//! CPU clock behind `client.cpu_share`.

use std::process::Command;

/// `USER_HZ`: the unit of the utime/stime fields of `/proc/*/stat`. It is
/// 100 on every mainstream Linux architecture.
const CLOCK_TICKS_PER_S: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Per-core L2 size as the kernel reports it (e.g. `2048K`).
fn l2_size() -> String {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return "unknown".to_string();
    };
    let mut dirs: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    dirs.sort();
    for dir in dirs {
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
        if read("level").ok().as_deref() == Some("2") {
            if let Ok(size) = read("size") {
                return size;
            }
        }
    }
    "unknown".to_string()
}

/// The process's peak resident set (`VmHWM`), KiB.
fn peak_rss_kib() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's stdout, or `unavailable`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Settings of one run that its numbers depend on.
#[derive(Clone, Debug)]
pub struct RunSettings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub client_threads: usize,
    pub reactor_workers: usize,
}

/// One JSON object: host fingerprint plus the run's settings and notes.
pub fn run_record(settings: &RunSettings, notes: &[(String, String)]) -> String {
    let nproc = nproc();
    let budget = settings.client_threads + settings.reactor_workers;
    let mut fields = vec![
        ("cpu_model", json_str(&cpu_model())),
        ("available_parallelism", nproc.to_string()),
        ("l2_per_core", json_str(&l2_size())),
        ("rustc", json_str(&command_line("rustc", &["-V"]))),
        (
            "git_sha",
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("workload", json_str(&settings.workload)),
        ("seed", settings.seed.to_string()),
        ("seconds", settings.seconds.to_string()),
        ("trace", settings.trace.to_string()),
        ("client_threads", settings.client_threads.to_string()),
        ("reactor_workers", settings.reactor_workers.to_string()),
        ("thread_budget_ok", (budget <= nproc).to_string()),
        ("peak_rss_kib", json_str(&peak_rss_kib())),
    ];
    let notes: Vec<(&str, String)> = notes
        .iter()
        .map(|(k, v)| (k.as_str(), json_str(v)))
        .collect();
    fields.extend(notes);
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{\"run_record\":{{{}}}}}", body.join(","))
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: the share of
/// time the hypervisor gave this VM's CPUs to someone else.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// CPU seconds (user + system) the calling thread has used so far, from
/// `/proc/thread-self/stat`; `None` where that file does not exist.
pub fn thread_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The command name may hold spaces and parentheses; fields after the
    // last ')' start at field 3 (state), so utime and stime (fields 14
    // and 15) are the 12th and 13th of the rest.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_one_json_object_with_host_fields() {
        let settings = RunSettings {
            workload: "w".into(),
            seed: 3,
            seconds: 1.0,
            trace: false,
            client_threads: 1,
            reactor_workers: 1,
        };
        let rec = run_record(&settings, &[("note".into(), "a \"quoted\" value".into())]);
        assert!(rec.starts_with("{\"run_record\":{") && rec.ends_with("}}"));
        for key in [
            "cpu_model",
            "available_parallelism",
            "l2_per_core",
            "rustc",
            "git_sha",
            "client_threads",
            "reactor_workers",
            "\\\"quoted\\\"",
        ] {
            assert!(rec.contains(key), "{key} missing from {rec}");
        }
    }

    #[test]
    fn thread_cpu_time_grows_with_work() {
        let Some(before) = thread_cpu_s() else { return };
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = thread_cpu_s().expect("stat readable twice");
        assert!(after >= before);
    }
}
