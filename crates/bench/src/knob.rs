//! Unified warn-and-fallback parsing for `ARL_*` environment knobs.
//!
//! Every knob follows one contract, mirroring the long-standing
//! `ARL_SCALE` behaviour: an unset variable silently takes the default, a
//! parsable-but-out-of-range value is clamped with a warning, and an
//! unparsable value warns and falls back to the default — a typo must
//! never silently select the wrong behaviour. `ARL_SHARD`,
//! `ARL_SNAPSHOT_INTERVAL` and `ARL_BACKEND` all route through here
//! (historically the first two had hand-rolled parsers with different
//! zero/invalid handling).

use arl_timing::BackendConfig;

/// Resolves a knob through `parse`: unset → `default`; unparsable →
/// warn on stderr (naming the fallback) and `default`.
pub fn knob_parsed<T>(
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

/// [`knob_parsed`] for unsigned integer knobs, additionally clamping
/// parsed values below `min` (with a warning).
pub fn knob_u64(name: &str, value: Option<&str>, default: u64, min: u64) -> u64 {
    let n = knob_parsed(name, value, default, &default.to_string(), |v| {
        v.parse::<u64>().ok()
    });
    if n < min {
        eprintln!("[arl-bench] clamping {name}={n} to {min}");
        return min;
    }
    n
}

/// [`knob_parsed`] for float knobs (ratios, thresholds), rejecting
/// non-finite values and clamping parsed values below `min` (with a
/// warning).
pub fn knob_f64(name: &str, value: Option<&str>, default: f64, min: f64) -> f64 {
    let n = knob_parsed(name, value, default, &default.to_string(), |v| {
        v.parse::<f64>().ok().filter(|x| x.is_finite())
    });
    if n < min {
        eprintln!("[arl-bench] clamping {name}={n} to {min}");
        return min;
    }
    n
}

/// Resolves a raw `ARL_BACKEND` value to a memory backend: one of the
/// [`BackendConfig::label`]s (case-insensitive); unset means the baseline
/// chain and anything else warns and falls back to it.
pub fn backend_from_value(value: Option<&str>) -> BackendConfig {
    knob_parsed(
        "ARL_BACKEND",
        value,
        BackendConfig::Baseline,
        "the baseline backend (valid: baseline, stacked-memory, stacked-cache, \
         stacked-memcache, burst)",
        BackendConfig::from_label,
    )
}

/// Reads `ARL_BACKEND`.
pub fn backend_from_env() -> BackendConfig {
    backend_from_value(std::env::var("ARL_BACKEND").ok().as_deref())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
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
    fn knob_f64_clamps_and_rejects_nonfinite() {
        assert_eq!(knob_f64("K", None, 0.8, 0.0), 0.8);
        assert_eq!(knob_f64("K", Some("1.5"), 0.8, 0.0), 1.5);
        assert_eq!(knob_f64("K", Some("-2"), 0.8, 0.0), 0.0, "clamped to min");
        assert_eq!(knob_f64("K", Some("nan"), 0.8, 0.0), 0.8, "NaN falls back");
        assert_eq!(knob_f64("K", Some("inf"), 0.8, 0.0), 0.8, "inf falls back");
        assert_eq!(knob_f64("K", Some("x"), 0.8, 0.0), 0.8);
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
}
