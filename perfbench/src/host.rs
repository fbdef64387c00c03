//! What produced a result: the host, and the environment it ran under.

/// `WORLDS_*` variables that change what the program does. A run under
/// any of them would not measure the default configuration, so the
/// benchmark refuses to start.
pub const BEHAVIOUR_ENV: [&str; 5] = [
    "WORLDS_DEDUPE",
    "WORLDS_PROF",
    "WORLDS_OBS",
    "WORLDS_EXEC_THREADS",
    "WORLDS_NET_CACHE_BYTES",
];

/// Every `WORLDS_*` variable that is set, sorted.
pub fn worlds_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("WORLDS_"))
        .collect();
    vars.sort();
    vars
}

/// An error naming the behaviour-changing variables that are set.
pub fn refuse_behaviour_env(vars: &[(String, String)]) -> Result<(), String> {
    let set: Vec<&str> = vars
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| BEHAVIOUR_ENV.contains(k))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} change(s) the program's behaviour; unset to measure the default configuration",
            set.join(", ")
        ))
    }
}

/// The host fingerprint recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub kernel: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Host {
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model,
            kernel,
        }
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
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
