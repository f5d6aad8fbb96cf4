//! `docdiff`: `sbomdiff diff A B --match tiered` on large external
//! documents, run as the release binary.
//!
//! Inputs come from `sbomdiff_bench::matching_corpus::sbom_pair(50_000,
//! seed)`, written once as CycloneDX JSON (A), SPDX JSON (B) and SPDX
//! tag-value (B). One operation is two processes in sequence: A against
//! B-JSON, then A against B-tag-value; running both in every operation keeps
//! the per-operation times unimodal. `setup_s` is the median wall time of
//! the same binary diffing two empty documents (process start, file open
//! and the smallest possible ingest), sampled between the operations.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use sbomdiff_diff::{jaccard, key_set, MatchedDiff};
use sbomdiff_matching::{MatchConfig, MatchTier};
use sbomdiff_sbomfmt::{ingest, SbomFormat};
use sbomdiff_textformats::{json, stream};
use sbomdiff_types::Sbom;

use crate::trace::Tracer;
use crate::{median, quantile, Args, Outcome};

const COMPONENTS: usize = 50_000;
/// `setup_s` samples taken before each timed operation. Taken all at the
/// start of a run, their median moved by 27% between two sets of runs.
const SETUP_SAMPLES: usize = 25;

struct Inputs {
    a: PathBuf,
    b_json: PathBuf,
    b_tv: PathBuf,
    a_len: usize,
    b_len: usize,
}

fn write_inputs(dir: &Path, seed: u64) -> std::io::Result<Inputs> {
    let (a, b) = sbomdiff_bench::matching_corpus::sbom_pair(COMPONENTS, seed);
    let path = |name: &str| dir.join(name);
    let inputs = Inputs {
        a: path("a.cdx.json"),
        b_json: path("b.spdx.json"),
        b_tv: path("b.spdx"),
        a_len: a.len(),
        b_len: b.len(),
    };
    for (path, text) in [
        (&inputs.a, SbomFormat::CycloneDx.serialize(&a)),
        (&inputs.b_json, SbomFormat::Spdx.serialize(&b)),
        (&inputs.b_tv, SbomFormat::SpdxTagValue.serialize(&b)),
    ] {
        // Flushed to disk now, so that write-back of the 40 MB does not
        // overlap the timed operations.
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    Ok(inputs)
}

/// Two empty documents: `sbomdiff diff` on them is process start, file
/// open and the smallest possible ingest.
fn write_empty(dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
    let empty = Sbom::new("empty", "1");
    let (a, b) = (dir.join("empty.cdx.json"), dir.join("empty.spdx.json"));
    std::fs::write(&a, SbomFormat::CycloneDx.serialize(&empty))?;
    std::fs::write(&b, SbomFormat::Spdx.serialize(&empty))?;
    Ok((a, b))
}

/// Appends the wall time, in s, of `SETUP_SAMPLES` diffs of the empty
/// documents to `times`.
fn sample_setup(empty: &(PathBuf, PathBuf), times: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_SAMPLES {
        let d = diff_process(&empty.0, &empty.1)?;
        if !d.success {
            return Err("sbomdiff diff on two empty documents failed".into());
        }
        times.push(d.ms / 1e3);
    }
    Ok(())
}

/// One `sbomdiff diff a b --match tiered` process: stdout, success, peak
/// RSS (KiB) and wall time (ms).
struct Diffed {
    stdout: Vec<u8>,
    success: bool,
    max_rss_kb: u64,
    ms: f64,
}

fn diff_process(a: &Path, b: &Path) -> Result<Diffed, String> {
    let start = Instant::now();
    let mut child = Command::new(crate::release_bin("sbomdiff"))
        .arg("diff")
        .arg(a)
        .arg(b)
        .args(["--match", "tiered"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning sbomdiff: {e}"))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let exit = crate::sys::wait(child).map_err(|e| e.to_string())?;
    read.map_err(|e| e.to_string())?;
    Ok(Diffed {
        stdout,
        success: exit.success,
        max_rss_kb: exit.max_rss_kb,
        ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// Checks one report: the component table names both generated counts and
/// the tiered match is at least as similar as the exact one.
fn check_report(report: &str, inputs: &Inputs) -> Result<(), String> {
    let field = |key: &str| -> Option<f64> {
        report
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
    };
    let (exact, matched) = (field("jaccard_exact:"), field("jaccard_matched:"));
    match (exact, matched) {
        (Some(e), Some(m)) if m >= e => {}
        _ => {
            return Err(format!(
                "jaccard_matched {matched:?} < jaccard_exact {exact:?}"
            ))
        }
    }
    for (side, n) in [("a", inputs.a_len), ("b", inputs.b_len)] {
        let counted = report.lines().any(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            cells.len() >= 3 && cells.contains(&n.to_string().as_str())
        });
        if !counted {
            return Err(format!("component count {n} of document {side} missing"));
        }
    }
    Ok(())
}

struct Op {
    ms: f64,
    digest: u64,
    max_rss_kb: u64,
    error: Option<String>,
}

fn op(inputs: &Inputs) -> Result<Op, String> {
    let mut out = Op {
        ms: 0.0,
        digest: crate::fnv64(b"docdiff"),
        max_rss_kb: 0,
        error: None,
    };
    for b in [&inputs.b_json, &inputs.b_tv] {
        let d = diff_process(&inputs.a, b)?;
        out.ms += d.ms;
        out.max_rss_kb = out.max_rss_kb.max(d.max_rss_kb);
        out.digest = crate::fnv64_extend(out.digest, &d.stdout);
        let report = String::from_utf8_lossy(&d.stdout);
        if !d.success {
            out.error = Some(format!("sbomdiff diff {} exited non-zero", b.display()));
        } else if let Err(e) = check_report(&report, inputs) {
            out.error = Some(format!("{}: {e}", b.display()));
        }
    }
    Ok(out)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = crate::work_dir("docdiff").map_err(|e| e.to_string())?;
    let empty = write_empty(&dir).map_err(|e| e.to_string())?;
    let inputs = write_inputs(&dir, args.seed).map_err(|e| e.to_string())?;
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let prime = op(&inputs)?;
    if let Some(e) = &prime.error {
        outcome.fail(e.clone());
    }
    outcome
        .notes
        .push(format!("report digest {:016x}", prime.digest));
    if args.trace {
        traced(&inputs, &prime, &mut outcome)?;
        return Ok(outcome);
    }
    let (mut setups, mut latencies) = (Vec::new(), Vec::new());
    let mut max_rss_kb = prime.max_rss_kb;
    // The set-up samples are taken between operations; their time is not
    // part of the timed wall time.
    let mut sampling = Duration::ZERO;
    let start = Instant::now();
    while start.elapsed() - sampling < args.seconds {
        let at = Instant::now();
        sample_setup(&empty, &mut setups)?;
        sampling += at.elapsed();
        let o = op(&inputs)?;
        outcome.attempted += 1;
        max_rss_kb = max_rss_kb.max(o.max_rss_kb);
        let error = o.error.or_else(|| {
            (o.digest != prime.digest).then(|| format!("report digest {:016x} differs", o.digest))
        });
        if let Some(e) = error {
            outcome.failed += 1;
            outcome.fail(e);
        }
        latencies.push(o.ms);
    }
    let wall_s = (start.elapsed() - sampling).as_secs_f64();
    outcome.set("setup_s", median(&setups));
    outcome.set(
        "ops_per_s",
        (outcome.attempted - outcome.failed) as f64 / wall_s,
    );
    outcome.set("p50_ms", median(&latencies));
    outcome.set("p99_ms", quantile(&latencies, 0.99));
    outcome.set("peak_rss_mb", max_rss_kb as f64 / 1024.0);
    Ok(outcome)
}

fn mb_per_s(bytes: usize, ms: f64) -> f64 {
    if ms <= 0.0 {
        0.0
    } else {
        bytes as f64 / 1e6 / (ms / 1e3)
    }
}

/// Times `f` as a span and returns its result with the span's ms.
fn timed<R>(t: &mut Tracer, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    t.record(name, start, end, None, 0);
    (out, (end - start).as_secs_f64() * 1e3)
}

/// The traced run: one operation with a span around each process, then the
/// layers under the CLI called in process on the same files. The tracing
/// overhead is the cost of recording the run's spans over its wall time.
fn traced(inputs: &Inputs, prime: &Op, outcome: &mut Outcome) -> Result<(), String> {
    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    let spanned: Result<Vec<Diffed>, String> = t.span("docdiff.op", None, 0, |t, op| {
        [&inputs.b_json, &inputs.b_tv]
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                let start = Instant::now();
                let d = diff_process(&inputs.a, b)?;
                t.record("docdiff.process", start, Instant::now(), Some(op), i as u64);
                Ok(d)
            })
            .collect()
    });
    let spanned = spanned?;
    let digest = spanned.iter().fold(crate::fnv64(b"docdiff"), |h, d| {
        crate::fnv64_extend(h, &d.stdout)
    });
    outcome.attempted = 1;
    if digest != prime.digest || !spanned.iter().all(|d| d.success) {
        outcome.failed += 1;
        outcome.fail("the traced operation's reports differ from the priming operation's");
    }

    // Lexers on the raw documents.
    let mut bytes_json = 0usize;
    let (mut stream_ms, mut json_ms) = (0.0, 0.0);
    for path in [&inputs.a, &inputs.b_json] {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        bytes_json += text.len();
        let (events, ms) = timed(&mut t, "textformats.stream", || {
            let mut s = stream::JsonStream::new(text.as_bytes());
            let mut n = 0u64;
            while let Ok(Some(_)) = s.next_event() {
                n += 1;
            }
            n
        });
        stream_ms += ms;
        let (parsed, ms) = timed(&mut t, "textformats.json", || json::parse(&text).is_ok());
        json_ms += ms;
        if events == 0 || !parsed {
            outcome.fail(format!("{} did not lex", path.display()));
        }
    }
    let tv = std::fs::read(&inputs.b_tv).map_err(|e| e.to_string())?;
    let (lines, lines_ms) = timed(&mut t, "textformats.lines", || {
        let mut r = stream::LineReader::new(tv.as_slice());
        let mut n = 0u64;
        while let Ok(Some(_)) = r.next_line() {
            n += 1;
        }
        n
    });
    if lines == 0 {
        outcome.fail("tag-value document has no lines");
    }
    outcome.set(
        "textformats.stream.mb_per_s",
        mb_per_s(bytes_json, stream_ms),
    );
    outcome.set("textformats.json.mb_per_s", mb_per_s(bytes_json, json_ms));
    outcome.set("textformats.lines.mb_per_s", mb_per_s(tv.len(), lines_ms));

    // Streaming ingest of all three documents, as the CLI does it.
    let (mut ingest_ms, mut ingest_bytes, mut peak) = (0.0, 0usize, 0usize);
    let mut docs = Vec::new();
    for path in [&inputs.a, &inputs.b_json, &inputs.b_tv] {
        let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
        let (o, ms) = timed(&mut t, "sbomfmt.ingest", || {
            ingest::ingest_reader(file, ingest::IngestOptions::default(), &mut |_| {})
        });
        ingest_ms += ms;
        ingest_bytes += o.stats.bytes_read as usize;
        peak = peak.max(o.stats.peak_buffered);
        if o.is_fatal() {
            outcome.fail(format!(
                "{} ingested with a fatal diagnostic",
                path.display()
            ));
        }
        docs.push(o.sbom);
    }
    outcome.set("sbomfmt.ingest.ms", ingest_ms);
    outcome.set("sbomfmt.ingest.mb_per_s", mb_per_s(ingest_bytes, ingest_ms));
    outcome.set("sbomfmt.ingest.peak_buffered_kb", peak as f64 / 1024.0);
    let (_, serialize_ms) = timed(&mut t, "sbomfmt.serialize", || {
        std::hint::black_box(SbomFormat::CycloneDx.serialize(&docs[0]).len())
            + std::hint::black_box(SbomFormat::Spdx.serialize(&docs[1]).len())
            + std::hint::black_box(SbomFormat::SpdxTagValue.serialize(&docs[2]).len())
    });
    outcome.set("sbomfmt.serialize.ms", serialize_ms);

    // Exact and tiered diff of A against both B documents.
    let (mut exact_ms, mut tiered_ms) = (0.0, 0.0);
    let mut counts = [0usize; MatchTier::COUNT];
    for b in &docs[1..] {
        let (_, ms) = timed(&mut t, "diff.exact", || {
            let (ka, kb) = (key_set(&docs[0]), key_set(b));
            std::hint::black_box((jaccard(&ka, &kb), ka.intersection(&kb).count()))
        });
        exact_ms += ms;
        let cfg = MatchConfig {
            jobs: 2,
            ..MatchConfig::default()
        };
        let (d, ms) = timed(&mut t, "matching.tiered", || {
            MatchedDiff::compute(&docs[0], b, &cfg)
        });
        tiered_ms += ms;
        for (c, n) in counts.iter_mut().zip(d.report.tier_counts()) {
            *c += n;
        }
    }
    outcome.set("diff.exact.ms", exact_ms);
    outcome.set("matching.tiered.ms", tiered_ms);
    outcome.set("matching.tier_counts", counts.iter().sum::<usize>() as f64);
    for tier in MatchTier::ALL {
        outcome.set(
            format!("matching.tier_counts.{}", tier.label().to_lowercase()),
            counts[tier.index()] as f64,
        );
    }
    outcome.set(
        "trace.overhead_pct",
        t.record_cost().as_secs_f64() / origin.elapsed().as_secs_f64() * 100.0,
    );
    let path = crate::work_dir("docdiff")
        .map_err(|e| e.to_string())?
        .join("trace.jsonl");
    t.write_jsonl(&path.to_string_lossy())
        .map_err(|e| e.to_string())?;
    Ok(())
}
