//! The end-to-end run: tracing off, warm units timed from PGM bytes in to
//! labels out, outputs checked after the clock stops.

use crate::check::{combine, divergent_px, failed_units, label_hash};
use crate::stats::{median, tail, Tail};
use crate::workload::{decode, peak_rss_mb, Workload, TILE_GRID};
use crate::{metric, Metric};
use rg_core::{
    run_batch, verify_segmentation, BatchOptions, Config, HostPipeline, MergeBackend,
    NullTelemetry, Pipeline, Segmentation, TileGrid, TiledRunner,
};
use rg_imaging::Image;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up repetitions per run (the reported `setup_s` is their median).
const SETUP_REPS: usize = 3;
/// Timed units run even when `--seconds` has already elapsed.
const MIN_UNITS: usize = 3;

/// One workload's unit runner: owns the warm pipeline, runner or batch
/// state and the last unit's labels.
trait Engine {
    /// One unit: decode every PGM buffer and segment it. `Err` when the
    /// program reported a failure.
    fn unit(&mut self, pgm: &[Vec<u8>]) -> Result<(), String>;
    /// Digest of the last unit's labels.
    fn digest(&self) -> u64;
    /// The last unit's labels, one buffer per image.
    fn labels(&self) -> Vec<&[u32]>;
}

struct Whole {
    pipe: HostPipeline<u8>,
    out: Segmentation,
}

impl Engine for Whole {
    fn unit(&mut self, pgm: &[Vec<u8>]) -> Result<(), String> {
        let img = decode(&pgm[0]);
        self.pipe
            .run_image_into(&img, &mut NullTelemetry, &mut self.out);
        Ok(())
    }
    fn digest(&self) -> u64 {
        label_hash(&self.out.labels)
    }
    fn labels(&self) -> Vec<&[u32]> {
        vec![&self.out.labels]
    }
}

struct Stream {
    config: Config,
    opts: BatchOptions,
    outs: Vec<Vec<u32>>,
}

impl Engine for Stream {
    fn unit(&mut self, pgm: &[Vec<u8>]) -> Result<(), String> {
        let images: Vec<Image<u8>> = pgm.iter().map(|b| decode(b)).collect();
        self.outs.resize_with(images.len(), Vec::new);
        let config = self.config;
        let outs = &mut self.outs;
        let summary = run_batch(
            &images,
            &self.opts,
            || Box::new(HostPipeline::<u8>::new(config, false)) as Box<dyn Pipeline + Send>,
            &mut NullTelemetry,
            |i, seg| {
                outs[i].clear();
                outs[i].extend_from_slice(&seg.labels);
            },
        );
        if summary.all_ok() {
            Ok(())
        } else {
            Err(format!("batch images failed: {:?}", summary.failed))
        }
    }
    fn digest(&self) -> u64 {
        let per: Vec<u64> = self.outs.iter().map(|l| label_hash(l)).collect();
        combine(&per)
    }
    fn labels(&self) -> Vec<&[u32]> {
        self.outs.iter().map(|l| l.as_slice()).collect()
    }
}

struct Tiled {
    runner: TiledRunner,
    out: Segmentation,
}

impl Engine for Tiled {
    fn unit(&mut self, pgm: &[Vec<u8>]) -> Result<(), String> {
        let img = decode(&pgm[0]);
        self.runner
            .run_into(&img, &mut NullTelemetry, &mut self.out);
        Ok(())
    }
    fn digest(&self) -> u64 {
        label_hash(&self.out.labels)
    }
    fn labels(&self) -> Vec<&[u32]> {
        vec![&self.out.labels]
    }
}

/// Constructs the workload's engine (the set-up a one-shot call pays).
fn build(w: Workload, config: Config, jobs: usize) -> Box<dyn Engine> {
    match w {
        Workload::WholeNoise => Box::new(Whole {
            pipe: HostPipeline::new(config, false),
            out: Segmentation::default(),
        }),
        Workload::StreamShapes => Box::new(Stream {
            config,
            opts: BatchOptions::new().jobs(jobs),
            outs: Vec::new(),
        }),
        Workload::TiledNoise => Box::new(Tiled {
            runner: TiledRunner::new(config, false, TileGrid::new(TILE_GRID.0, TILE_GRID.1), jobs),
            out: Segmentation::default(),
        }),
    }
}

/// What the exact reference says the unit must output.
struct Expected {
    /// Digest every unit must reproduce.
    hash: u64,
    /// `false` when the expected output itself failed a check.
    valid: bool,
    /// Labels of the exact partition, one buffer per image.
    exact: Vec<Vec<u32>>,
    /// Human-readable check notes.
    notes: Vec<String>,
}

/// `verify_segmentation` on each image's output; one note per failure.
fn verify_all(images: &[Image<u8>], segs: &[Segmentation], config: &Config) -> Vec<String> {
    images
        .iter()
        .zip(segs)
        .enumerate()
        .filter_map(|(i, (img, seg))| {
            let v = verify_segmentation(img, seg, config).err()?;
            Some(format!(
                "image {i}: {} violations, first {:?}",
                v.len(),
                v[0]
            ))
        })
        .collect()
}

/// Computes the expected output of one unit, untimed, once per process.
fn expected(w: Workload, images: &[Image<u8>], config: Config, jobs: usize) -> Expected {
    let mut notes = Vec::new();
    // `checked`: the outputs every unit must reproduce, validated below;
    // `exact`: the exact partition `divergent_px` is measured against.
    let (checked, exact) = match w {
        Workload::WholeNoise => {
            let reference = config.merge_backend(MergeBackend::Reference);
            let seg = HostPipeline::<u8>::new(reference, false).run_image(&images[0]);
            notes.push(format!(
                "reference backend: {} regions, {} merge iterations",
                seg.num_regions, seg.merge_iterations
            ));
            (vec![seg], None)
        }
        Workload::StreamShapes => {
            let mut seq = HostPipeline::<u8>::new(config, false);
            let segs: Vec<Segmentation> = images.iter().map(|img| seq.run_image(img)).collect();
            notes.push(format!(
                "sequential jobs=1 pipeline: {} images, {} regions",
                segs.len(),
                segs.iter().map(|s| s.num_regions).sum::<usize>()
            ));
            (segs, None)
        }
        Workload::TiledNoise => {
            let grid = TileGrid::new(TILE_GRID.0, TILE_GRID.1);
            let (seg, stats) =
                TiledRunner::new(config, false, grid, 1).run(&images[0], &mut NullTelemetry);
            let whole = HostPipeline::<u8>::new(config, false).run_image(&images[0]);
            notes.push(format!(
                "tiled jobs=1: {} regions ({} seam edges, {} stitch merges); whole image: {} regions; jobs used {jobs}",
                seg.num_regions, stats.seam_edges, stats.stitch_merges, whole.num_regions
            ));
            (vec![seg], Some(vec![whole.labels]))
        }
    };
    let verified = verify_all(images, &checked, &config);
    let hashes: Vec<u64> = checked.iter().map(|s| label_hash(&s.labels)).collect();
    let hash = match w {
        Workload::StreamShapes => combine(&hashes),
        _ => hashes[0],
    };
    let valid = verified.is_empty();
    notes.extend(verified);
    Expected {
        hash,
        valid,
        exact: exact.unwrap_or_else(|| checked.into_iter().map(|s| s.labels).collect()),
        notes,
    }
}

/// Results of one timed run.
pub struct Timed {
    /// Warm wall seconds per unit.
    pub walls: Vec<f64>,
    /// Set-up seconds per repetition.
    pub setups: Vec<f64>,
    /// Megapixels per unit.
    pub mpix_per_unit: f64,
    /// Process high-water RSS after the workload, before the checks.
    pub peak_rss_mb: f64,
    /// Units attempted (set-up units included).
    pub attempted: usize,
    /// Units that failed.
    pub failed: usize,
    /// Pixels of the last unit disagreeing with the exact partition.
    pub divergent_px: u64,
    /// Pixels per unit.
    pub pixels: u64,
    /// Check notes.
    pub notes: Vec<String>,
}

impl Timed {
    /// Median warm wall per unit.
    pub fn p50(&self) -> f64 {
        median(&self.walls)
    }
    /// Tail wall statistic.
    pub fn tail(&self) -> Tail {
        tail(&self.walls)
    }
    /// Megapixels segmented per second of timed unit wall.
    pub fn throughput(&self) -> f64 {
        self.mpix_per_unit * self.walls.len() as f64 / self.walls.iter().sum::<f64>()
    }
    /// Failed units ÷ attempted units.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
    /// The end-to-end metrics. The two correctness figures are reported
    /// as complements (`1 − failed_frac`, `1 − divergent_px / pixels`) so
    /// that a correct run never reads 0.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("wall_s.p50", "s", self.p50()),
            metric("wall_s.tail", "s", self.tail().value),
            metric("throughput_mpix_s", "Mpix/s", self.throughput()),
            metric("setup_s", "s", median(&self.setups)),
            metric("peak_rss_mb", "MiB", self.peak_rss_mb),
            metric("units_ok_frac", "frac", 1.0 - self.failed_frac()),
            metric(
                "agree_px_frac",
                "frac",
                1.0 - self.divergent_px as f64 / self.pixels as f64,
            ),
        ]
    }
}

/// `(name, unit)` of every end-to-end metric, in report order.
#[cfg(test)]
pub fn names() -> Vec<(&'static str, &'static str)> {
    let t = Timed {
        walls: vec![1.0],
        setups: vec![1.0],
        mpix_per_unit: 1.0,
        peak_rss_mb: 1.0,
        attempted: 1,
        failed: 0,
        divergent_px: 0,
        pixels: 1,
        notes: Vec::new(),
    };
    t.metrics().into_iter().map(|m| (m.name, m.unit)).collect()
}

/// Runs one unit under `catch_unwind`, returning its wall and digest.
fn timed_unit(engine: &mut dyn Engine, pgm: &[Vec<u8>]) -> (f64, Option<u64>) {
    let t = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| engine.unit(pgm)));
    let wall = t.elapsed().as_secs_f64();
    match ran {
        Ok(Ok(())) => (wall, Some(engine.digest())),
        Ok(Err(e)) => {
            eprintln!("unit failed: {e}");
            (wall, None)
        }
        Err(_) => (wall, None),
    }
}

/// The end-to-end run of workload `w`.
pub fn run(w: Workload, seed: u64, images: &[Image<u8>], pgm: &[Vec<u8>], seconds: f64) -> Timed {
    let config = w.config(seed);
    let jobs = w.jobs();
    let mut hashes: Vec<Option<u64>> = Vec::new();

    // Set-up: construct the engine and run its first unit on fresh arenas.
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let t = Instant::now();
        let mut e = build(w, config, jobs);
        let (_, h) = timed_unit(e.as_mut(), pgm);
        setups.push(t.elapsed().as_secs_f64());
        hashes.push(h);
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");

    // Warm units until the time budget is spent.
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_UNITS || start.elapsed() < budget {
        let (wall, h) = timed_unit(engine.as_mut(), pgm);
        if h.is_none() {
            // A failed unit may leave the engine inconsistent: rebuild it.
            engine = build(w, config, jobs);
        }
        walls.push(wall);
        hashes.push(h);
    }
    let peak = peak_rss_mb();
    let timed_s = start.elapsed().as_secs_f64();

    let checks = Instant::now();
    let exp = expected(w, images, config, jobs);
    eprintln!(
        "phases: set-up {:.1} s, timed {timed_s:.1} s ({} units), checks {:.1} s",
        setups.iter().sum::<f64>(),
        walls.len(),
        checks.elapsed().as_secs_f64()
    );
    let failed = failed_units(&hashes, exp.hash, exp.valid);
    let divergent = engine
        .labels()
        .iter()
        .zip(&exp.exact)
        .map(|(got, exact)| {
            if got.len() == exact.len() {
                divergent_px(got, exact)
            } else {
                exact.len() as u64
            }
        })
        .sum();
    let pixels: u64 = images.iter().map(|i| i.len() as u64).sum();
    Timed {
        walls,
        setups,
        mpix_per_unit: pixels as f64 / 1e6,
        peak_rss_mb: peak,
        attempted: hashes.len(),
        failed,
        divergent_px: divergent,
        pixels,
        notes: exp.notes,
    }
}
