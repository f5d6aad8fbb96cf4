//! `study`: the paper's batch run, `experiments all`, in process.
//!
//! One operation prepares a fresh `Context` with the CLI defaults (seed
//! 2024, 120 repos per language) and `--jobs 2`, and calls the fifteen
//! experiment functions in the order `experiments all` does. `setup_s` is
//! `Context::prepare`; the operation's latency excludes it. Every operation
//! must write the same CSV bytes.
//!
//! The corpus is the paper run's fixed one, not one per workload seed:
//! across seeds the per-operation time moved by about 17%, more than any
//! bound a regression check could use.

use std::path::Path;
use std::time::Instant;

use sbomdiff_corpus::{Corpus, CorpusConfig};
use sbomdiff_experiments::experiments::{self, Context, SBOM_TOOL_FAILURE_RATE};
use sbomdiff_experiments::Config;
use sbomdiff_generators::{studied_tools, BestPracticeGenerator, ParseCache, ScanContext};
use sbomdiff_metadata::python::ReqStyle;
use sbomdiff_registry::Registries;
use sbomdiff_resolver::{dry_run, Platform};
use sbomdiff_types::{Ecosystem, ResolvedPackage, Version};
use sbomdiff_vuln::{assess_cached, AdvisoryDb, EnrichCache};

use crate::sys::{peak_rss_mb, ParkedStdout};
use crate::trace::Tracer;
use crate::{eco_slug, median, quantile, Args, Outcome, PHASES};

const REPOS_PER_LANGUAGE: usize = 120;
const CORPUS_SEED: u64 = 2024;
const JOBS: usize = 2;

fn run_phase(ctx: &Context, phase: &str) {
    match phase {
        "fig1" => experiments::fig1(ctx),
        "fig2" => experiments::fig2(ctx),
        "table1" => experiments::table1(ctx),
        "table2" => experiments::table2(ctx),
        "table3" => experiments::table3(ctx),
        "table4" => experiments::table4(ctx, true),
        "stats" => experiments::stats(ctx),
        "benchscore" => experiments::benchscore(ctx),
        "diagnostics" => experiments::diagnostics(ctx),
        "ablate" => experiments::ablate(ctx),
        "ranking" => experiments::ranking(ctx),
        "vulnimpact" => experiments::vulnimpact(ctx),
        "vuln" => experiments::vuln(ctx),
        "quality" => experiments::quality(ctx),
        "matching" => experiments::matching(ctx),
        other => unreachable!("unknown phase {other}"),
    }
}

struct Op {
    setup_s: f64,
    op_ms: f64,
    digest: u64,
    csvs: usize,
}

/// Digest over every file in `dir`, in name order: (name, length, bytes).
fn digest_dir(dir: &Path) -> std::io::Result<(u64, usize)> {
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .collect();
    names.sort();
    let mut h = crate::fnv64(b"study");
    for name in &names {
        let bytes = std::fs::read(dir.join(name))?;
        h = crate::fnv64_extend(h, name.as_encoded_bytes());
        h = crate::fnv64_extend(h, &(bytes.len() as u64).to_le_bytes());
        h = crate::fnv64_extend(h, &bytes);
    }
    Ok((h, names.len()))
}

/// One full `experiments all`. With a tracer, each experiment function
/// runs inside its own span.
fn op(cfg: &Config, tracer: Option<&mut Tracer>) -> Result<Op, String> {
    let out = Path::new(&cfg.out_dir);
    if out.exists() {
        std::fs::remove_dir_all(out).map_err(|e| e.to_string())?;
    }
    let parked = ParkedStdout::park().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let ctx = Context::prepare(cfg);
    let t1 = Instant::now();
    match tracer {
        None => {
            for phase in PHASES {
                run_phase(&ctx, phase);
            }
        }
        Some(tracer) => tracer.span("study.op", None, 0, |t, op| {
            for phase in PHASES {
                t.span(&format!("experiments.{phase}"), Some(op), 0, |_, _| {
                    run_phase(&ctx, phase)
                });
            }
        }),
    }
    let t2 = Instant::now();
    drop(parked);
    drop(ctx);
    let (digest, csvs) = digest_dir(out).map_err(|e| e.to_string())?;
    Ok(Op {
        setup_s: (t1 - t0).as_secs_f64(),
        op_ms: (t2 - t1).as_secs_f64() * 1e3,
        digest,
        csvs,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = crate::work_dir("study").map_err(|e| e.to_string())?;
    let cfg = Config {
        repos_per_language: REPOS_PER_LANGUAGE,
        paper_weights: false,
        seed: CORPUS_SEED,
        out_dir: dir.join("out").to_string_lossy().into_owned(),
        jobs: JOBS,
    };
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    // Untimed priming operation; it also fixes the reference digest.
    let prime = op(&cfg, None)?;
    if prime.csvs == 0 {
        outcome.fail("experiments all wrote no CSV");
    }
    outcome.notes.push(format!(
        "csv digest {:016x} over {} files (seed {CORPUS_SEED})",
        prime.digest, prime.csvs
    ));
    if args.trace {
        traced(&cfg, prime, &mut outcome)?;
        return Ok(outcome);
    }
    let mut setups = vec![prime.setup_s];
    let mut latencies = Vec::new();
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let o = op(&cfg, None)?;
        outcome.attempted += 1;
        if o.digest != prime.digest {
            outcome.failed += 1;
            outcome.fail(format!("CSV digest {:016x} differs", o.digest));
        }
        setups.push(o.setup_s);
        latencies.push(o.op_ms);
    }
    let wall_s = start.elapsed().as_secs_f64();
    outcome.set("setup_s", median(&setups));
    outcome.set(
        "ops_per_s",
        (outcome.attempted - outcome.failed) as f64 / wall_s,
    );
    outcome.set("p50_ms", median(&latencies));
    outcome.set("p99_ms", quantile(&latencies, 0.99));
    outcome.set("peak_rss_mb", peak_rss_mb("self"));
    Ok(outcome)
}

/// The traced run: one traced operation, then single-threaded probes of the
/// layers under the experiments, each call in its own span. The tracing
/// overhead is the cost of recording the run's spans over its wall time.
fn traced(cfg: &Config, prime: Op, outcome: &mut Outcome) -> Result<(), String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let spanned = op(cfg, Some(&mut tracer))?;
    outcome.attempted = 1;
    if spanned.digest != prime.digest {
        outcome.failed += 1;
        outcome.fail(format!("CSV digest {:016x} differs", spanned.digest));
    }
    probe_layers(CORPUS_SEED, &mut tracer, outcome);
    outcome.set(
        "trace.overhead_pct",
        tracer.record_cost().as_secs_f64() / origin.elapsed().as_secs_f64() * 100.0,
    );
    let by_name = tracer.self_ms_by_name();
    for (name, ms) in &by_name {
        outcome.set(format!("{name}.ms"), *ms);
    }
    for layer in ["scan", "emulate", "bestpractice"] {
        let total: f64 = Ecosystem::ALL
            .iter()
            .filter_map(|&eco| by_name.get(&format!("generators.{layer}.{}", eco_slug(eco))))
            .sum();
        outcome.set(format!("generators.{layer}.ms"), total);
    }
    let path = crate::work_dir("study")
        .map_err(|e| e.to_string())?
        .join("trace.jsonl");
    tracer
        .write_jsonl(&path.to_string_lossy())
        .map_err(|e| e.to_string())?;
    Ok(())
}

fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn probe_layers(seed: u64, tracer: &mut Tracer, outcome: &mut Outcome) {
    let registries = tracer.span("registry.generate", None, 0, |_, _| {
        Registries::generate(seed)
    });
    let corpus = tracer.span("corpus.build", None, 0, |_, _| {
        Corpus::build_with_jobs(
            &registries,
            &CorpusConfig {
                repos_per_language: REPOS_PER_LANGUAGE,
                seed: seed ^ 0xc0ffee,
            },
            JOBS,
        )
    });
    let cache = ParseCache::new();
    let tools = studied_tools(&registries, SBOM_TOOL_FAILURE_RATE);
    let best = BestPracticeGenerator::new(&registries);
    let db = AdvisoryDb::generate(&registries, seed, 0.25);
    let enrich = EnrichCache::new();
    let platform = Platform::default();
    let python = registries.for_ecosystem(Ecosystem::Python);
    let mut dry_runs = 0u64;
    let mut request = 0u64;
    for eco in Ecosystem::ALL {
        let slug = eco_slug(eco);
        for repo in corpus.language(eco) {
            request += 1;
            let scan = tracer.span(&format!("generators.scan.{slug}"), None, request, |_, _| {
                let scan = ScanContext::new(repo, &cache);
                for &(path, kind) in scan.files() {
                    scan.parsed(path, kind, ReqStyle::Pip);
                }
                scan
            });
            let sboms: Vec<_> = tracer.span(
                &format!("generators.emulate.{slug}"),
                None,
                request,
                |_, _| tools.iter().map(|t| t.generate_with_scan(&scan)).collect(),
            );
            let reference = tracer.span(
                &format!("generators.bestpractice.{slug}"),
                None,
                request,
                |_, _| best.generate_with_scan(&scan),
            );
            let truth: Vec<ResolvedPackage> = reference
                .components()
                .iter()
                .filter_map(|c| {
                    let version = Version::parse(c.version.as_deref()?).ok()?;
                    Some(ResolvedPackage::direct(c.name.clone(), version))
                })
                .collect();
            tracer.span("vuln.assess", None, request, |_, _| {
                for sbom in &sboms {
                    std::hint::black_box(assess_cached(&enrich, &db, eco, sbom, &truth).ok());
                }
            });
            tracer.span("quality.evaluate", None, request, |_, _| {
                for sbom in sboms.iter().chain([&reference]) {
                    std::hint::black_box(sbomdiff_quality::evaluate(sbom));
                }
            });
            if eco == Ecosystem::Python && repo.text("requirements.txt").is_some() {
                dry_runs += 1;
                tracer.span("resolver.dry_run", None, request, |_, _| {
                    std::hint::black_box(dry_run(
                        python,
                        &repo.text_files(),
                        "requirements.txt",
                        &platform,
                    ))
                });
            }
        }
    }
    outcome.set("resolver.dry_run.calls", dry_runs as f64);
    outcome.set(
        "generators.parse_cache.hit_ratio",
        hit_ratio(cache.hits(), cache.misses()),
    );
    let stats = enrich.stats();
    outcome.set(
        "vuln.enrich_cache.hit_ratio",
        hit_ratio(stats.hits, stats.misses),
    );
}
