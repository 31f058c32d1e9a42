//! The `BENCH_WALL.json` comparator behind `cargo xtask wall-diff`.
//!
//! A wall report is what `wall_bench --save-baseline` emits: one entry per
//! microbench with the median wall time and the exact per-iteration
//! allocation counts. Entries live in a `BTreeMap`, so serialization is
//! byte-deterministic — the committed baseline diffs cleanly.
//!
//! The gate is deliberately asymmetric:
//!
//! * **time** is gated loosely (default: fail only past 2× growth, and only
//!   beyond an absolute floor) because CI hosts are noisy and share cores;
//! * **allocation counts** are gated tightly (default 10%) because they are
//!   exact, host-speed-independent, and an allocation regression on a hot
//!   path is precisely the kind of creep this gate exists to catch.
//!
//! Shrinkage never fails. `--update` rewrites the baseline after a pass;
//! CI does not use it, so the committed baseline changes only through a
//! deliberate commit.

use std::collections::BTreeMap;

use ncp2_obs::json::{esc, parse, JVal};

/// Current wall-report format version.
pub const WALL_FORMAT: u64 = 1;

/// Below this many nanoseconds of absolute growth, a median-time increase
/// is never flagged: sub-tick jitter on a trivial bench is not a
/// regression.
pub const TIME_FLOOR_NS: u64 = 50;

/// Below this many additional allocations per iteration, an
/// allocation-count increase is never flagged (a bench around 1–10
/// allocs/iter would otherwise trip the percentage gate on +1).
pub const ALLOC_FLOOR: u64 = 2;

/// Like [`ALLOC_FLOOR`], for allocated bytes per iteration.
pub const ALLOC_BYTES_FLOOR: u64 = 64;

/// One microbench's numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WallBench {
    /// Median-of-K wall nanoseconds per iteration.
    pub median_ns: u64,
    /// Timed samples taken (the K of median-of-K).
    pub samples: u64,
    /// Allocations per iteration (median across samples; exact when the
    /// counting allocator is compiled in, zero otherwise).
    pub allocs: u64,
    /// Allocated bytes per iteration (median across samples).
    pub alloc_bytes: u64,
    /// Peak live-heap growth over the whole bench, bytes.
    pub peak_bytes: u64,
}

/// A full wall report: every bench of one `wall_bench` run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WallReport {
    /// Whether the emitting binary had the counting allocator installed —
    /// a baseline with counting cannot be satisfied by a run without it.
    pub alloc_counting: bool,
    /// Benches by id, sorted (BTreeMap) for byte-deterministic output.
    pub benches: BTreeMap<String, WallBench>,
}

impl WallReport {
    /// Serializes to deterministic JSON: sorted keys, fixed field order,
    /// integers only, trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"format\": {WALL_FORMAT},\n"));
        out.push_str(&format!("  \"alloc_counting\": {},\n", self.alloc_counting));
        out.push_str("  \"benches\": {\n");
        for (i, (id, b)) in self.benches.iter().enumerate() {
            let comma = if i + 1 == self.benches.len() { "" } else { "," };
            out.push_str(&format!(
                "    \"{}\": {{\"median_ns\": {}, \"samples\": {}, \"allocs\": {}, \
                 \"alloc_bytes\": {}, \"peak_bytes\": {}}}{comma}\n",
                esc(id),
                b.median_ns,
                b.samples,
                b.allocs,
                b.alloc_bytes,
                b.peak_bytes
            ));
        }
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// Parses a wall report produced by [`WallReport::to_json`].
pub fn parse_wall(text: &str) -> Result<WallReport, String> {
    let v = parse(text)?;
    let format = v
        .get("format")
        .and_then(JVal::as_u64)
        .ok_or("missing numeric field 'format'")?;
    if format != WALL_FORMAT {
        return Err(format!(
            "wall report format {format} (this tool reads {WALL_FORMAT})"
        ));
    }
    let alloc_counting = v
        .get("alloc_counting")
        .and_then(JVal::as_bool)
        .ok_or("missing boolean field 'alloc_counting'")?;
    let obj = v
        .get("benches")
        .and_then(JVal::as_obj)
        .ok_or("missing object field 'benches'")?;
    let mut benches = BTreeMap::new();
    for (id, b) in obj {
        let f = |k: &str| -> Result<u64, String> {
            b.get(k)
                .and_then(JVal::as_u64)
                .ok_or_else(|| format!("bench '{id}' missing '{k}'"))
        };
        benches.insert(
            id.clone(),
            WallBench {
                median_ns: f("median_ns")?,
                samples: f("samples")?,
                allocs: f("allocs")?,
                alloc_bytes: f("alloc_bytes")?,
                peak_bytes: f("peak_bytes")?,
            },
        );
    }
    Ok(WallReport {
        alloc_counting,
        benches,
    })
}

/// Gate thresholds, as growth percentages over the baseline.
#[derive(Debug, Clone, Copy)]
pub struct WallDiffCfg {
    /// Maximum median-time growth, percent (default 100 = 2×).
    pub time_pct: f64,
    /// Maximum allocation-count / allocated-bytes growth, percent
    /// (default 10).
    pub alloc_pct: f64,
}

impl Default for WallDiffCfg {
    fn default() -> Self {
        WallDiffCfg {
            time_pct: 100.0,
            alloc_pct: 10.0,
        }
    }
}

/// True when `new` exceeds `old` by more than `pct` percent **and** by more
/// than the absolute `floor` — both conditions, so percentage noise on tiny
/// values and absolute noise on huge values each need the other gate too.
fn grew(old: u64, new: u64, pct: f64, floor: u64) -> bool {
    let limit = (old as f64) * (1.0 + pct / 100.0);
    (new as f64) > limit && new > old.saturating_add(floor)
}

/// Compares `new` against the `old` baseline. Returns `(failures, notes)`:
/// any failure fails the gate; notes (new benches) are informational.
pub fn compare_wall(
    old: &WallReport,
    new: &WallReport,
    cfg: &WallDiffCfg,
) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    if old.alloc_counting && !new.alloc_counting {
        failures.push(
            "baseline has allocation counting but the new report does not \
             (rebuild wall_bench with --features prof)"
                .to_string(),
        );
    }
    for (id, o) in &old.benches {
        let Some(n) = new.benches.get(id) else {
            failures.push(format!("bench '{id}' disappeared from the suite"));
            continue;
        };
        if grew(o.median_ns, n.median_ns, cfg.time_pct, TIME_FLOOR_NS) {
            failures.push(format!(
                "'{id}' median time {} -> {} ns/iter (+{:.0}%, limit {:.0}%)",
                o.median_ns,
                n.median_ns,
                pct_growth(o.median_ns, n.median_ns),
                cfg.time_pct
            ));
        }
        if grew(o.allocs, n.allocs, cfg.alloc_pct, ALLOC_FLOOR) {
            failures.push(format!(
                "'{id}' allocations {} -> {} per iter (+{:.0}%, limit {:.0}%)",
                o.allocs,
                n.allocs,
                pct_growth(o.allocs, n.allocs),
                cfg.alloc_pct
            ));
        }
        if grew(
            o.alloc_bytes,
            n.alloc_bytes,
            cfg.alloc_pct,
            ALLOC_BYTES_FLOOR,
        ) {
            failures.push(format!(
                "'{id}' allocated bytes {} -> {} per iter (+{:.0}%, limit {:.0}%)",
                o.alloc_bytes,
                n.alloc_bytes,
                pct_growth(o.alloc_bytes, n.alloc_bytes),
                cfg.alloc_pct
            ));
        }
    }
    for id in new.benches.keys() {
        if !old.benches.contains_key(id) {
            notes.push(format!("new bench '{id}'"));
        }
    }
    (failures, notes)
}

fn pct_growth(old: u64, new: u64) -> f64 {
    if old == 0 {
        return 100.0;
    }
    100.0 * (new as f64 - old as f64) / old as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, WallBench)]) -> WallReport {
        WallReport {
            alloc_counting: true,
            benches: entries.iter().map(|(id, b)| (id.to_string(), *b)).collect(),
        }
    }

    fn bench(median_ns: u64, allocs: u64, alloc_bytes: u64) -> WallBench {
        WallBench {
            median_ns,
            samples: 9,
            allocs,
            alloc_bytes,
            peak_bytes: 4096,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(&[("diff/apply", bench(800, 3, 256))]);
        let (failures, notes) = compare_wall(&r, &r, &WallDiffCfg::default());
        assert!(failures.is_empty(), "{failures:?}");
        assert!(notes.is_empty());
    }

    #[test]
    fn doubled_median_fails_but_just_under_passes() {
        let old = report(&[("diff/apply", bench(800, 3, 256))]);
        let at_limit = report(&[("diff/apply", bench(1600, 3, 256))]);
        let over = report(&[("diff/apply", bench(1601, 3, 256))]);
        let cfg = WallDiffCfg::default();
        // 2× exactly is the limit, not past it.
        assert!(compare_wall(&old, &at_limit, &cfg).0.is_empty());
        let (failures, _) = compare_wall(&old, &over, &cfg);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("median time"));
    }

    #[test]
    fn time_floor_absorbs_jitter_on_trivial_benches() {
        // 10 ns -> 55 ns is a 5.5× blowup but only +45 ns: below the floor.
        let old = report(&[("bitvec/scan", bench(10, 0, 0))]);
        let new = report(&[("bitvec/scan", bench(55, 0, 0))]);
        assert!(compare_wall(&old, &new, &WallDiffCfg::default())
            .0
            .is_empty());
        // +51 ns crosses the floor *and* the ratio: fails.
        let worse = report(&[("bitvec/scan", bench(61, 0, 0))]);
        assert_eq!(
            compare_wall(&old, &worse, &WallDiffCfg::default()).0.len(),
            1
        );
    }

    #[test]
    fn ten_percent_alloc_growth_fails_tightly() {
        let old = report(&[("diff/create", bench(800, 40, 4096))]);
        let ok = report(&[("diff/create", bench(800, 44, 4096))]); // +10% exactly
        let bad = report(&[("diff/create", bench(800, 45, 4096))]); // +12.5%
        let cfg = WallDiffCfg::default();
        assert!(compare_wall(&old, &ok, &cfg).0.is_empty());
        let (failures, _) = compare_wall(&old, &bad, &cfg);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("allocations"));
    }

    #[test]
    fn alloc_floor_ignores_single_stray_allocation() {
        // 1 -> 2 allocs is +100% but only +1: below the floor of 2.
        let old = report(&[("vtime/merge", bench(100, 1, 64))]);
        let new = report(&[("vtime/merge", bench(100, 2, 64))]);
        assert!(compare_wall(&old, &new, &WallDiffCfg::default())
            .0
            .is_empty());
        // 1 -> 4 is past both gates.
        let worse = report(&[("vtime/merge", bench(100, 4, 64))]);
        assert_eq!(
            compare_wall(&old, &worse, &WallDiffCfg::default()).0.len(),
            1
        );
    }

    #[test]
    fn alloc_bytes_growth_is_gated_too() {
        let old = report(&[("diff/create", bench(800, 40, 4096))]);
        let bad = report(&[("diff/create", bench(800, 40, 5000))]); // +22%
        let (failures, _) = compare_wall(&old, &bad, &WallDiffCfg::default());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("allocated bytes"));
    }

    #[test]
    fn missing_bench_fails_and_new_bench_is_a_note() {
        let old = report(&[("a", bench(100, 0, 0)), ("b", bench(100, 0, 0))]);
        let new = report(&[("b", bench(100, 0, 0)), ("c", bench(100, 0, 0))]);
        let (failures, notes) = compare_wall(&old, &new, &WallDiffCfg::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("'a' disappeared"));
        assert_eq!(notes, ["new bench 'c'"]);
    }

    #[test]
    fn losing_alloc_counting_fails() {
        let old = report(&[("a", bench(100, 5, 512))]);
        let mut new = old.clone();
        new.alloc_counting = false;
        new.benches.get_mut("a").expect("entry").allocs = 0;
        new.benches.get_mut("a").expect("entry").alloc_bytes = 0;
        let (failures, _) = compare_wall(&old, &new, &WallDiffCfg::default());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("allocation counting"));
    }

    #[test]
    fn shrinkage_never_fails() {
        let old = report(&[("a", bench(1000, 50, 4096))]);
        let new = report(&[("a", bench(10, 1, 64))]);
        assert!(compare_wall(&old, &new, &WallDiffCfg::default())
            .0
            .is_empty());
    }

    #[test]
    fn json_round_trip_is_exact_and_byte_deterministic() {
        let r = report(&[
            ("net/route_all_pairs", bench(3200, 0, 0)),
            ("diff/apply_256", bench(810, 1, 4096)),
            ("cache/job_key", bench(95, 0, 0)),
        ]);
        let text = r.to_json();
        let parsed = parse_wall(&text).expect("parse");
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), text);
        // BTreeMap keys: serialization order is sorted, not insertion order.
        let cache = text.find("cache/job_key").expect("cache bench");
        let diff = text.find("diff/apply_256").expect("diff bench");
        let net = text.find("net/route_all_pairs").expect("net bench");
        assert!(cache < diff && diff < net);
    }

    #[test]
    fn format_mismatch_is_rejected() {
        let text = "{\"format\": 99, \"alloc_counting\": true, \"benches\": {}}";
        assert!(parse_wall(text).is_err());
    }
}
