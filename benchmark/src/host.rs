//! The host record written next to every result, and the loud ISA check: a
//! host the JIT cannot run on fails the run with a message instead of
//! passing silently with nothing measured.

use crate::json::Json;
use jitspmm::CpuFeatures;

/// Hardware threads the OS grants this process (1 when detection fails).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `Err` with the message to print when the host lacks AVX or FMA.
pub fn require_avx_fma() -> Result<(), String> {
    let features = CpuFeatures::detect();
    if features.avx && features.has_fma() {
        Ok(())
    } else {
        Err("this host lacks AVX/FMA: the JIT kernels cannot run here, so nothing can be \
             measured. This is a failed run, not a skip."
            .to_string())
    }
}

/// How long [`condition`] keeps every hardware thread busy before a pass.
pub const CONDITION_SECONDS: f64 = 3.0;

/// Put the host into a known state before anything is timed: every hardware
/// thread spins for `seconds`. On this kind of host (a small VM) the cost of
/// waking an idle core depends on how busy the machine was in the last
/// minute — the same paced loop reads 180 us after a busy spell and 240 us
/// after an idle one — so without this a run's numbers depend on what
/// happened to run before it.
pub fn condition(seconds: f64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(seconds);
    std::thread::scope(|threads| {
        for _ in 0..nproc() {
            threads.spawn(move || {
                // No `spin_loop` hint: a PAUSE loop tells the hypervisor the
                // core is waiting, which is the opposite of looking busy.
                while std::time::Instant::now() < deadline {}
            });
        }
    });
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `[("L1d", "96K"), ...]` from cpu0's sysfs cache directory.
fn caches() -> Vec<(String, String)> {
    let mut found = Vec::new();
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{base}/level")),
            read_trimmed(&format!("{base}/type")),
            read_trimmed(&format!("{base}/size")),
        ) else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        found.push((format!("L{level}{suffix}"), size));
    }
    found
}

/// Everything a reader needs to judge whether two result files are
/// comparable: absolute times only mean something on the same host.
pub fn record(window_scale: f64) -> Json {
    let features = CpuFeatures::detect();
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        (
            "caches",
            Json::Obj(caches().into_iter().map(|(name, size)| (name, Json::Str(size))).collect()),
        ),
        ("isa", Json::Str(format!("{:?}", features.best_isa()))),
        ("avx", Json::Bool(features.avx)),
        ("fma", Json::Bool(features.has_fma())),
        ("os", Json::Str(read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_default())),
        // Measured windows are the issue's 30 s design windows times this.
        ("window_scale", Json::Num(window_scale)),
    ])
}
