//! The `ARL_*` environment knobs, read once into one [`Knobs`] value.
//!
//! This is the only bench module that reads the environment: every binary
//! entry point calls [`Knobs::from_env`] once and hands plain values down.
//! Every knob follows one warn-and-fallback contract: an unset variable
//! silently takes the default, a parsable-but-out-of-range value is
//! clamped with a warning, and an unparsable value warns and falls back
//! to the default — a typo must never silently select the wrong
//! behaviour. Flags share one bool rule ([`flag`]) and paths one path
//! rule (unset or empty means none). `ARL_FAULT` is the one exception:
//! its raw value is kept, and the fault campaign refuses a malformed plan
//! with exit 2, because a typo would silently run a different campaign.
//!
//! `ARL_IO_FAULT` and `ARL_IO_TRACE` are read by `arl-sink`, as hooks for
//! child processes: they arm a process-global I/O gate that `arl-trace`
//! writes through too.

use std::ffi::OsString;
use std::fmt::Display;
use std::path::PathBuf;

use arl_timing::BackendConfig;
use arl_workloads::Scale;

use crate::experiments::{ExperimentOptions, TraceMode};
use crate::shard::DEFAULT_SNAPSHOT_INTERVAL;

/// Every `ARL_*` knob the bench binaries honour, parsed.
#[derive(Debug)]
pub(crate) struct Knobs {
    /// `ARL_SCALE`: `tiny` or an integer multiplier; `None` when unset
    /// (each binary picks its own default).
    pub scale: Option<Scale>,
    /// `ARL_THREADS`: worker threads (default all cores).
    pub threads: usize,
    /// `ARL_TRACE`: `replay` (default) or `live`.
    pub trace: TraceMode,
    /// `ARL_PROBE`: attach the cycle-level probe to every timing cell.
    pub probe: bool,
    /// `ARL_SNAPSHOT_INTERVAL`: `bench_shard`'s capture-time snapshot
    /// cadence in instructions (0 disables).
    pub snapshot_interval: u64,
    /// `ARL_BACKEND`: the memory backend under every timing config.
    pub backend: BackendConfig,
    /// `ARL_JSON`: where [`crate::emit`] writes documents; `None` writes
    /// nothing.
    pub json: Option<PathBuf>,
    /// `ARL_CHECKPOINT`: the completion ledger.
    pub checkpoint: Option<PathBuf>,
    /// `ARL_CHECKPOINT_FORCE`: resume a ledger of a different run identity.
    pub(crate) checkpoint_force: bool,
    /// `ARL_FAULT`: the fault campaign's plan, unparsed; `None` when unset
    /// (the campaign's default plan).
    pub fault: Option<String>,
    /// `ARL_MAX_JOBS`: truncate the fault campaign to its first N jobs.
    pub(crate) max_jobs: Option<usize>,
    /// `ARL_CHAOS_POINTS`: seeded fault points of the chaos campaign.
    pub(crate) chaos_points: u32,
    /// `ARL_CHAOS_CHILD`: path to the `fault_campaign` binary.
    pub(crate) chaos_child: Option<PathBuf>,
    /// `ARL_CHAOS_DIR`: the chaos campaign's work directory.
    pub(crate) chaos_dir: Option<PathBuf>,
    /// `ARL_SPEED_WORKLOADS`: `bench_speed` workload subset.
    pub(crate) speed_workloads: Option<Vec<String>>,
    /// `ARL_SPEED_BASELINE`: the committed speed baseline to gate against.
    pub(crate) speed_baseline: Option<PathBuf>,
}

impl Knobs {
    /// Reads and parses every knob (warnings go to stderr).
    pub(crate) fn from_env() -> Knobs {
        let text = |name: &str| std::env::var(name).ok();
        let path = |name: &str| {
            std::env::var_os(name)
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        };
        Knobs {
            scale: scale_from_value(text("ARL_SCALE").as_deref()),
            threads: threads_from_value(text("ARL_THREADS").as_deref()),
            trace: trace_from_value(text("ARL_TRACE").as_deref()),
            probe: flag("ARL_PROBE", text("ARL_PROBE").as_deref()),
            snapshot_interval: snapshot_interval_from_value(
                text("ARL_SNAPSHOT_INTERVAL").as_deref(),
            ),
            backend: backend_from_value(text("ARL_BACKEND").as_deref()),
            json: path("ARL_JSON"),
            checkpoint: path("ARL_CHECKPOINT"),
            checkpoint_force: flag(
                "ARL_CHECKPOINT_FORCE",
                text("ARL_CHECKPOINT_FORCE").as_deref(),
            ),
            fault: text("ARL_FAULT"),
            max_jobs: max_jobs_from_value(text("ARL_MAX_JOBS").as_deref()),
            chaos_points: knob_u64(
                "ARL_CHAOS_POINTS",
                text("ARL_CHAOS_POINTS").as_deref(),
                20,
                1,
            ) as u32,
            chaos_child: path("ARL_CHAOS_CHILD"),
            chaos_dir: path("ARL_CHAOS_DIR"),
            speed_workloads: speed_workloads_from_value(text("ARL_SPEED_WORKLOADS").as_deref()),
            speed_baseline: path("ARL_SPEED_BASELINE"),
        }
    }

    /// The experiment options these knobs select (default scale 1).
    pub(crate) fn options(&self) -> ExperimentOptions {
        ExperimentOptions::new(self.scale.unwrap_or_default(), self.threads)
            .with_trace(self.trace)
            .with_probe(self.probe)
            .with_backend(self.backend)
    }
}

/// The names of every `ARL_*` variable in this process's environment, so
/// a supervisor can scrub them from a child's.
pub(crate) fn ambient_knob_names() -> Vec<OsString> {
    std::env::vars_os()
        .map(|(key, _)| key)
        .filter(|key| key.to_string_lossy().starts_with("ARL_"))
        .collect()
}

/// Resolves a knob through `parse`: unset → `default`; unparsable →
/// warn on stderr (naming the fallback) and `default`.
fn knob_parsed<T>(
    name: &str,
    value: Option<&str>,
    default: T,
    fallback_desc: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    match value {
        None => default,
        Some(v) => match parse(v.trim()) {
            Some(parsed) => parsed,
            None => {
                eprintln!("[arl-bench] ignoring invalid {name}={v:?}; using {fallback_desc}");
                default
            }
        },
    }
}

/// Raises `n` to `min`, with a warning when that changes it.
fn clamp_min<T: PartialOrd + Display>(name: &str, n: T, min: T) -> T {
    if n < min {
        eprintln!("[arl-bench] clamping {name}={n} to {min}");
        return min;
    }
    n
}

/// [`knob_parsed`] for unsigned integer knobs, additionally clamping
/// parsed values below `min` (with a warning).
fn knob_u64(name: &str, value: Option<&str>, default: u64, min: u64) -> u64 {
    let n = knob_parsed(name, value, default, &default.to_string(), |v| {
        v.parse::<u64>().ok()
    });
    clamp_min(name, n, min)
}

/// The one bool rule: `1`/`true`/`on`/`yes` enable, `0`/`false`/`off`/
/// `no` and the empty string disable (any case), and anything else warns
/// and stays disabled — so no typo ever arms a flag.
fn flag(name: &str, value: Option<&str>) -> bool {
    knob_parsed(name, value, false, "off", |v| {
        match v.to_ascii_lowercase().as_str() {
            "1" | "true" | "on" | "yes" => Some(true),
            "" | "0" | "false" | "off" | "no" => Some(false),
            _ => None,
        }
    })
}

/// `ARL_SCALE`: `"tiny"` (any case) selects the smoke scale and a
/// positive integer the multiplier (`0` clamps to 1).
fn scale_from_value(value: Option<&str>) -> Option<Scale> {
    knob_parsed("ARL_SCALE", value, None, "the default scale", |v| {
        if v.eq_ignore_ascii_case("tiny") {
            return Some(Some(Scale::tiny()));
        }
        let n = v.parse::<u32>().ok()?;
        Some(Some(Scale::new(clamp_min("ARL_SCALE", n, 1))))
    })
}

/// `ARL_THREADS`: a positive worker count (`0` clamps to serial); unset
/// or invalid means all available cores.
fn threads_from_value(value: Option<&str>) -> usize {
    let all = std::thread::available_parallelism().map_or(1, |n| n.get());
    knob_u64("ARL_THREADS", value, all as u64, 1) as usize
}

/// `ARL_TRACE`: `live`/`off`/`0` select live re-execution and
/// `replay`/`on`/`1` replay (any case); unset means replay.
fn trace_from_value(value: Option<&str>) -> TraceMode {
    knob_parsed("ARL_TRACE", value, TraceMode::Replay, "replay", |v| match v
        .to_ascii_lowercase()
        .as_str()
    {
        "replay" | "on" | "1" => Some(TraceMode::Replay),
        "live" | "off" | "0" => Some(TraceMode::Live),
        _ => None,
    })
}

/// `ARL_SNAPSHOT_INTERVAL`: instructions between capture-time snapshot
/// records; 0 disables snapshots.
fn snapshot_interval_from_value(value: Option<&str>) -> u64 {
    knob_u64("ARL_SNAPSHOT_INTERVAL", value, DEFAULT_SNAPSHOT_INTERVAL, 0)
}

/// `ARL_BACKEND`: one of the [`BackendConfig::label`]s (any case); unset
/// means the baseline chain.
fn backend_from_value(value: Option<&str>) -> BackendConfig {
    knob_parsed(
        "ARL_BACKEND",
        value,
        BackendConfig::Baseline,
        "the baseline backend (valid: baseline, stacked-memory, stacked-cache, \
         stacked-memcache, burst)",
        BackendConfig::from_label,
    )
}

/// `ARL_MAX_JOBS`: a positive job cap; unset means every job.
fn max_jobs_from_value(value: Option<&str>) -> Option<usize> {
    knob_parsed("ARL_MAX_JOBS", value, None, "every job", |v| {
        v.parse::<usize>().ok().filter(|&n| n > 0).map(Some)
    })
}

/// `ARL_SPEED_WORKLOADS`: a comma-separated, non-empty workload list.
fn speed_workloads_from_value(value: Option<&str>) -> Option<Vec<String>> {
    knob_parsed("ARL_SPEED_WORKLOADS", value, None, "the full suite", |v| {
        let names: Vec<String> = v
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        (!names.is_empty()).then_some(Some(names))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_parsed_falls_back_on_garbage_only() {
        assert_eq!(knob_parsed("K", None, 7, "7", |v| v.parse().ok()), 7);
        assert_eq!(knob_parsed("K", Some("3"), 7, "7", |v| v.parse().ok()), 3);
        assert_eq!(knob_parsed("K", Some(" 3 "), 7, "7", |v| v.parse().ok()), 3);
        assert_eq!(
            knob_parsed("K", Some("x"), 7, "7", |v| v.parse::<u64>().ok()),
            7
        );
    }

    #[test]
    fn knob_u64_clamps_below_min() {
        assert_eq!(knob_u64("K", Some("0"), 1, 1), 1, "zero clamps to min");
        assert_eq!(
            knob_u64("K", Some("0"), 5, 0),
            0,
            "zero is valid when min is 0"
        );
        assert_eq!(knob_u64("K", Some("9"), 1, 1), 9);
        assert_eq!(knob_u64("K", None, 4, 1), 4);
        assert_eq!(
            knob_u64("K", Some("-3"), 4, 1),
            4,
            "negatives are invalid, not clamped"
        );
    }

    #[test]
    fn flags_never_arm_on_false_off_zero_empty_or_typos() {
        // `ARL_CHECKPOINT_FORCE` disarms the ledger fingerprint guard, so
        // only an explicit yes may arm it.
        let off = [
            "", " ", "0", "false", "False", "off", "OFF", "no", "maybe", "2",
        ];
        assert!(!flag("ARL_CHECKPOINT_FORCE", None));
        for value in off {
            assert!(!flag("ARL_CHECKPOINT_FORCE", Some(value)), "{value:?}");
        }
        for value in ["1", "true", "TRUE", "on", "yes", " 1 "] {
            assert!(flag("ARL_CHECKPOINT_FORCE", Some(value)), "{value:?}");
        }
    }

    #[test]
    fn scale_from_value_handles_edge_cases() {
        let scale = |v| scale_from_value(v).unwrap_or_default();
        // Explicit factors are honoured; zero clamps to 1 instead of
        // producing a degenerate scale.
        assert_eq!(scale(Some("4")).factor(), 4);
        assert_eq!(scale(Some(" 2 ")).factor(), 2);
        assert_eq!(scale(Some("0")).factor(), 1);
        assert!(!scale(Some("0")).is_tiny());
        // The smoke scale survives, whatever the capitalization.
        assert!(scale(Some("tiny")).is_tiny());
        assert!(scale(Some("TINY")).is_tiny());
        // Unset or invalid values fall back to the default scale — they
        // must never be silently misread as factor 1.
        assert!(scale_from_value(None).is_none());
        let default = Scale::default();
        for bad in ["", "lots", "-2", "1.5", "0x8"] {
            assert!(scale_from_value(Some(bad)).is_none(), "value {bad:?}");
            assert_eq!(scale(Some(bad)).factor(), default.factor(), "value {bad:?}");
            assert_eq!(
                scale(Some(bad)).is_tiny(),
                default.is_tiny(),
                "value {bad:?}"
            );
        }
    }

    #[test]
    fn threads_from_value_handles_edge_cases() {
        let default = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Explicit counts are honoured; zero clamps to serial.
        assert_eq!(threads_from_value(Some("1")), 1);
        assert_eq!(threads_from_value(Some(" 3 ")), 3);
        assert_eq!(threads_from_value(Some("0")), 1);
        // Oversubscription is allowed — Pool::map caps workers at the
        // cell count, so a huge value is harmless.
        assert_eq!(threads_from_value(Some("4096")), 4096);
        // Unset or invalid values fall back to all cores.
        assert_eq!(threads_from_value(None), default);
        for bad in ["", "lots", "-2", "1.5", "0x8", "abc"] {
            assert_eq!(threads_from_value(Some(bad)), default, "value {bad:?}");
        }
    }

    #[test]
    fn trace_mode_falls_back_to_replay_on_typos() {
        assert_eq!(trace_from_value(None), TraceMode::Replay);
        for live in ["live", "LIVE", "off", "0", " live "] {
            assert_eq!(trace_from_value(Some(live)), TraceMode::Live, "{live:?}");
        }
        for replay in ["replay", "on", "1", "lvie", "garbage", ""] {
            assert_eq!(
                trace_from_value(Some(replay)),
                TraceMode::Replay,
                "{replay:?}"
            );
        }
    }

    #[test]
    fn snapshot_parser_handles_edge_cases() {
        assert_eq!(
            snapshot_interval_from_value(None),
            DEFAULT_SNAPSHOT_INTERVAL
        );
        assert_eq!(snapshot_interval_from_value(Some("5000")), 5_000);
        assert_eq!(snapshot_interval_from_value(Some("0")), 0, "0 disables");
        assert_eq!(
            snapshot_interval_from_value(Some("soon")),
            DEFAULT_SNAPSHOT_INTERVAL
        );
    }

    #[test]
    fn backend_values_resolve_with_baseline_fallback() {
        assert_eq!(backend_from_value(None), BackendConfig::Baseline);
        assert_eq!(
            backend_from_value(Some("baseline")),
            BackendConfig::Baseline
        );
        assert_eq!(
            backend_from_value(Some("stacked-cache")),
            BackendConfig::StackedCache
        );
        assert_eq!(
            backend_from_value(Some("STACKED-MEMCACHE")),
            BackendConfig::StackedMemCache
        );
        assert_eq!(backend_from_value(Some(" burst ")), BackendConfig::Burst);
        assert_eq!(backend_from_value(Some("hbm3")), BackendConfig::Baseline);
        for backend in BackendConfig::ALL {
            assert_eq!(backend_from_value(Some(backend.label())), backend);
        }
    }

    #[test]
    fn max_jobs_parser_handles_edge_cases() {
        assert_eq!(max_jobs_from_value(None), None);
        assert_eq!(max_jobs_from_value(Some("3")), Some(3));
        assert_eq!(max_jobs_from_value(Some("0")), None);
        assert_eq!(max_jobs_from_value(Some("all")), None);
        assert_eq!(max_jobs_from_value(Some("abc")), None);
    }

    #[test]
    fn speed_workload_list_drops_blanks() {
        assert_eq!(speed_workloads_from_value(None), None);
        assert_eq!(
            speed_workloads_from_value(Some(" go, ,gcc ")),
            Some(vec!["go".to_string(), "gcc".to_string()])
        );
        assert_eq!(speed_workloads_from_value(Some(" , ")), None);
    }
}
