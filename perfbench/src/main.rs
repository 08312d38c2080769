//! `perfbench`: the seeded, output-checked benchmark of the split-and-merge
//! segmenter.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it times warm units (PGM bytes in, labels out) and
//! prints the end-to-end metrics; with `--trace 1` it times calls into each
//! layer's public functions and prints the per-layer metrics. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A fuller record (machine, working set, check notes, spans) is
//! written under `.bench_results/` in the working directory.

mod check;
mod layers;
mod stats;
mod timed;
mod workload;

use rg_core::json::Json;
use rg_core::split;
use std::path::Path;
use std::process::ExitCode;
use workload::{WorkingSet, Workload, DEFAULT_SEED, HOLDOUT_SEED};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <whole-noise-2048|stream-shapes-512|tiled-noise-2048> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Per-image working set of the workload's largest image, computed from
/// its split and graph counts.
fn working_set(w: Workload, images: &[rg_imaging::Image<u8>], seed: u64) -> WorkingSet {
    let config = w.config(seed);
    let mut edges = Vec::new();
    images
        .iter()
        .map(|img| {
            let s = split(img, &config);
            rg_core::graph::adjacent_label_pairs_into(
                &s.square_of,
                img.width(),
                img.height(),
                config.connectivity,
                &mut edges,
            );
            WorkingSet {
                pixels: img.len() as u64,
                squares: s.num_squares() as u64,
                edges: edges.len() as u64,
            }
        })
        .max_by_key(WorkingSet::total_bytes)
        .unwrap_or_default()
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let images = w.images(args.seed);
    let pgm = workload::encode(&images);
    let nproc = workload::nproc();
    let jobs = w.jobs();
    let ws = working_set(w, &images, args.seed);
    let llc = workload::llc_bytes();
    println!(
        "perfbench {} seed={} (default {DEFAULT_SEED}, holdout {HOLDOUT_SEED}) trace={}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "machine: nproc={nproc} jobs={jobs} llc_bytes={}",
        llc.map_or("unknown".to_string(), |b| b.to_string())
    );
    println!(
        "working set per image (computed): {} px, {} squares, {} edges -> {} B pixels + {} B vertices + {} B edges = {} B ({})",
        ws.pixels,
        ws.squares,
        ws.edges,
        ws.pixel_bytes(),
        ws.vertex_bytes(),
        ws.edge_bytes(),
        ws.total_bytes(),
        match llc {
            Some(l) if ws.total_bytes() <= l => "fits the LLC",
            Some(_) => "exceeds the LLC",
            None => "LLC unknown",
        }
    );

    let mut record = vec![
        ("workload", Json::from(w.name())),
        ("seed", Json::from(args.seed)),
        ("default_seed", Json::from(DEFAULT_SEED)),
        ("holdout_seed", Json::from(HOLDOUT_SEED)),
        ("trace", Json::from(args.trace)),
        ("nproc", Json::from(nproc)),
        ("jobs", Json::from(jobs)),
        ("llc_bytes", llc.map_or(Json::Null, Json::from)),
        (
            "working_set_computed",
            Json::obj(vec![
                ("pixels", ws.pixels.into()),
                ("squares", ws.squares.into()),
                ("edges", ws.edges.into()),
                ("pixel_bytes", ws.pixel_bytes().into()),
                ("vertex_bytes", ws.vertex_bytes().into()),
                ("edge_bytes", ws.edge_bytes().into()),
                ("total_bytes", ws.total_bytes().into()),
            ]),
        ),
    ];

    let (metrics, attempted, failed, notes) = if args.trace {
        let l = layers::run(w, args.seed, &images, &pgm, args.seconds);
        let spans_path = format!(".bench_results/{}-seed{}.spans.jsonl", w.name(), args.seed);
        if let Err(e) = l.write_spans(Path::new(&spans_path)) {
            eprintln!("perfbench: cannot write {spans_path}: {e}");
        }
        record.push(("spans", Json::from(spans_path)));
        (l.metrics, l.attempted, l.failed, l.notes)
    } else {
        let t = timed::run(w, args.seed, &images, &pgm, args.seconds);
        let tail = t.tail();
        let failed_frac = t.failed_frac();
        println!(
            "wall_s.tail is p{:.1} of {} warm units ({} beyond)",
            tail.percentile, tail.samples, tail.beyond
        );
        println!(
            "failed_frac = {failed_frac} ({}/{}), divergent_px = {} of {}",
            t.failed, t.attempted, t.divergent_px, t.pixels
        );
        record.push((
            "tail",
            Json::obj(vec![
                ("percentile", tail.percentile.into()),
                ("samples", tail.samples.into()),
                ("beyond", tail.beyond.into()),
            ]),
        ));
        record.push(("failed_frac", failed_frac.into()));
        record.push(("divergent_px", t.divergent_px.into()));
        record.push(("walls_s", t.walls.clone().into()));
        record.push(("setups_s", t.setups.clone().into()));
        let metrics = t.metrics();
        (metrics, t.attempted, t.failed, t.notes)
    };

    for n in &notes {
        println!("check: {n}");
    }
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    record.push(("notes", notes.into()));
    record.push(("metrics", metrics_json(&metrics)));
    let path = format!(
        ".bench_results/{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(".bench_results")
        .and_then(|()| std::fs::write(&path, Json::obj(record).to_pretty()))
    {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
    let result = Json::obj(vec![
        ("correct", (failed == 0).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn listed(section: &str) -> Vec<(String, String)> {
        let spec =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        spec.get(section)
            .and_then(Json::as_arr)
            .expect("section present")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn owned(names: Vec<(&str, &str)>) -> Vec<(String, String)> {
        names
            .into_iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = timed::names().iter().map(|m| m.0).collect();
        all.extend(layers::names().iter().map(|m| m.0));
        for n in &all {
            assert!(well_formed(n), "bad metric name {n:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        assert!(!well_formed("merge ms") && !well_formed(".x") && !well_formed("a/b"));
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        assert_eq!(owned(timed::names()), listed("end_to_end"));
        assert_eq!(owned(layers::names()), listed("per_layer"));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let spec =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload tiled-noise-2048 --seed 9 --seconds 3 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(a.workload, Workload::TiledNoise);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        let d = parse_args(&argv("--workload whole-noise-2048")).expect("defaults");
        assert_eq!(d.seed, DEFAULT_SEED);
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload whole-noise-2048 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload whole-noise-2048 --seed")).is_err());
    }
}
