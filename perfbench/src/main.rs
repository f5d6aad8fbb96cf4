//! Outside-in benchmark of sbomdiff: three workloads against the release
//! binaries and the crates' public functions.
//!
//! ```text
//! perfbench --workload <study|docdiff|serve-hot>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics from spans recorded around public calls. Every metric
//! is printed as `name value unit`, and the last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod docdiff;
mod serve;
mod study;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Why `correct` is false, or what was checked (digests); printed to
    /// stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a failed output check; the run is then not correct.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", why.into()));
    }
}

/// The end-to-end metrics, with units; every `--trace 0` run reports all.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Experiment functions `experiments all` calls, in its order.
pub const PHASES: [&str; 15] = [
    "fig1",
    "fig2",
    "table1",
    "table2",
    "table3",
    "table4",
    "stats",
    "benchscore",
    "diagnostics",
    "ablate",
    "ranking",
    "vulnimpact",
    "vuln",
    "quality",
    "matching",
];

pub const ENDPOINTS: [&str; 3] = ["analyze", "diff", "impact"];

/// Lower-case metric-name slug of an ecosystem.
pub fn eco_slug(eco: sbomdiff_types::Ecosystem) -> String {
    format!("{eco:?}").to_lowercase()
}

/// Every per-layer metric with its unit; every `--trace 1` run reports
/// all of them, with 0 for layers its workload does not exercise.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for phase in PHASES {
        add(format!("experiments.{phase}.ms"), "ms");
    }
    add("registry.generate.ms".into(), "ms");
    add("corpus.build.ms".into(), "ms");
    for layer in ["scan", "emulate", "bestpractice"] {
        add(format!("generators.{layer}.ms"), "ms");
        for eco in sbomdiff_types::Ecosystem::ALL {
            add(format!("generators.{layer}.{}.ms", eco_slug(eco)), "ms");
        }
    }
    add("generators.parse_cache.hit_ratio".into(), "ratio");
    add("resolver.dry_run.ms".into(), "ms");
    add("resolver.dry_run.calls".into(), "count");
    add("vuln.assess.ms".into(), "ms");
    add("vuln.enrich_cache.hit_ratio".into(), "ratio");
    add("quality.evaluate.ms".into(), "ms");
    for lexer in ["stream", "json", "lines"] {
        add(format!("textformats.{lexer}.mb_per_s"), "MB/s");
    }
    add("sbomfmt.ingest.ms".into(), "ms");
    add("sbomfmt.ingest.mb_per_s".into(), "MB/s");
    add("sbomfmt.ingest.peak_buffered_kb".into(), "KB");
    add("sbomfmt.serialize.ms".into(), "ms");
    add("diff.exact.ms".into(), "ms");
    add("matching.tiered.ms".into(), "ms");
    add("matching.tier_counts".into(), "count");
    for tier in sbomdiff_matching::MatchTier::ALL {
        add(
            format!("matching.tier_counts.{}", tier.label().to_lowercase()),
            "count",
        );
    }
    for side in ["client", "handler"] {
        for ep in ENDPOINTS {
            add(format!("service.{side}.{ep}.p50_ms"), "ms");
        }
    }
    add("service.transport.p50_ms".into(), "ms");
    add("service.http.parse_us".into(), "us");
    add("service.respcache.key_us".into(), "us");
    add("service.respcache.hits_per_request".into(), "count");
    add("service.respcache.lookups_per_request".into(), "count");
    add("service.parse_cache.hit_ratio".into(), "ratio");
    add("service.enrich_cache.hit_ratio".into(), "ratio");
    add("service.cpu_ms_per_request".into(), "ms");
    add("trace.overhead_pct".into(), "%");
    out
}

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in (0, 1]; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// 64-bit FNV-1a, used to compare outputs across operations.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Scratch directory for generated inputs, outputs and span dumps.
pub fn work_dir(workload: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".perfbench").join(workload);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The release binary `name`, built by run.sh into the Cargo target dir.
pub fn release_bin(name: &str) -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("release").join(name)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected seconds"))?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "study" => study::run(&args),
        "docdiff" => docdiff::run(&args),
        "serve-hot" => serve::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match result {
        Ok(o) if o.attempted > 0 => o,
        Ok(_) => {
            eprintln!("perfbench: {}: no operation was timed", args.workload);
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        eprintln!("perfbench: {}: {note}", args.workload);
    }
    let catalog: Vec<(String, &str)> = if args.trace {
        per_layer_catalog()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::with_capacity(catalog.len());
    for (name, unit) in &catalog {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name} {} {unit}", json_number(value));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 198.0);
        assert_eq!(quantile(&xs[..5], 0.99), 5.0);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let catalog = per_layer_catalog();
        let names: std::collections::BTreeSet<_> = catalog.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), catalog.len());
    }
}
