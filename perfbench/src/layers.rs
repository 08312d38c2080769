//! The traced run: per-layer timings taken around calls into each module's
//! public functions, on the workload's own inputs.
//!
//! Layers, in the order a unit meets them: `pgm::read`, `split_into`,
//! `adjacent_label_pairs_into`, `Merger::reset_from`, `Merger::step_traced`
//! (whose choice/apply/compact spans land in [`PhaseSink`]),
//! `labels_by_vertex_into`, then the composed entry points
//! `HostPipeline::run_image_into`, `TiledRunner::run_into` and `run_batch`.
//! Every figure is per unit (one image, or the whole stream) and is the
//! median over repetitions. Spans are kept in memory and written out once,
//! after the last repetition.

use crate::check::label_hash;
use crate::stats::median;
use crate::workload::{decode, nproc, Workload, TILE_GRID};
use crate::{metric, Metric};
use rg_core::graph::{adjacent_label_pairs_into, Rag};
use rg_core::{
    run_batch, split_into, verify_segmentation, BatchOptions, Config, HostPipeline, Merger,
    NullTelemetry, Pipeline, Recorder, Segmentation, SpanKind, SplitResult, SplitScratch,
    Telemetry, TileGrid, TiledRunner,
};
use rg_imaging::Image;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Repetitions run even when `--seconds` has already elapsed.
const MIN_REPS: usize = 2;
/// No repetition starts after this much wall time, whatever `--seconds`.
const HARD_STOP: Duration = Duration::from_secs(100);
/// Iterations whose active edges fall below this share of the initial
/// edges are left out of the per-edge drift.
const DRIFT_MIN_SHARE: f64 = 0.01;

/// One recorded span.
struct Span {
    name: &'static str,
    parent: usize,
    image: usize,
    start: Duration,
    end: Duration,
}

/// In-memory span store; span 0 is the root.
struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: vec![Span {
                name: "run",
                parent: 0,
                image: 0,
                start: Duration::ZERO,
                end: Duration::ZERO,
            }],
        }
    }

    fn open(&mut self, name: &'static str, parent: usize, image: usize) -> usize {
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            parent,
            image,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, returning its length in milliseconds.
    fn close(&mut self, id: usize) -> f64 {
        let s = &mut self.spans[id];
        s.end = self.t0.elapsed();
        (s.end - s.start).as_secs_f64() * 1e3
    }
}

/// The sink `Merger::step_traced` reports its phases to: records each
/// choice/apply/compact span under the current iteration span.
struct PhaseSink<'a> {
    spans: &'a mut Spans,
    parent: usize,
    image: usize,
    open: usize,
    choice_ms: f64,
    apply_ms: f64,
    compact_ms: f64,
}

impl Telemetry for PhaseSink<'_> {
    fn span_begin(&mut self, kind: SpanKind) {
        let name = match kind {
            SpanKind::Choice => "merge.choice",
            SpanKind::Apply => "merge.apply",
            SpanKind::Compact => "merge.compact",
            _ => "merge.other",
        };
        self.open = self.spans.open(name, self.parent, self.image);
    }

    fn span_end(&mut self, kind: SpanKind) {
        let ms = self.spans.close(self.open);
        match kind {
            SpanKind::Choice => self.choice_ms += ms,
            SpanKind::Apply => self.apply_ms += ms,
            SpanKind::Compact => self.compact_ms += ms,
            _ => {}
        }
    }
}

/// Per-unit sums of one repetition.
#[derive(Default, Clone)]
struct Sample {
    decode_ms: f64,
    split_ms: f64,
    squares: f64,
    pairs_ms: f64,
    edges: f64,
    build_ms: f64,
    merge_ms: f64,
    iterations: f64,
    choice_ms: f64,
    apply_ms: f64,
    compact_ms: f64,
    merges: f64,
    zero_merge_iters: f64,
    relabel_work: f64,
    compactions: f64,
    peak_active_edges: f64,
    ns_per_edge_it0: f64,
    ns_per_edge_drift: f64,
    resolve_ms: f64,
    warm_ms: f64,
    recorder_ms: f64,
    cold_ms: f64,
    tiles_ms: f64,
    tiles_j1_ms: f64,
    seam_edges: f64,
    stitch_merges: f64,
    stitch_iterations: f64,
    tile_sum_ms: f64,
    tile_imbalance: f64,
    batch_ms: f64,
    batch_j1_ms: f64,
    straggler_ms: f64,
}

/// Warm state of every layer, reused across repetitions.
struct Warm {
    config: Config,
    scratch: SplitScratch<u8>,
    split: SplitResult<u8>,
    edges: Vec<(u32, u32)>,
    ids: Vec<u64>,
    merger: Option<Merger<u8>>,
    by_vertex: Vec<u32>,
    pipe: HostPipeline<u8>,
    out: Segmentation,
    tiled_jn: TiledRunner,
    tiled_j1: TiledRunner,
    tiled_out: Segmentation,
    tile_pipe: HostPipeline<u8>,
    crop: Image<u8>,
}

/// Outcome of the output checks of a traced run.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("MISMATCH: {}", what()));
        }
    }
}

/// Canonical labels from the staged calls: pixel → square → representative,
/// compacted by first appearance (the gather the pipeline fuses).
fn gather(square_of: &[u32], by_vertex: &[u32]) -> Vec<u32> {
    let mut map = vec![u32::MAX; by_vertex.len()];
    let mut next = 0;
    square_of
        .iter()
        .map(|&q| {
            let r = by_vertex[q as usize] as usize;
            if map[r] == u32::MAX {
                map[r] = next;
                next += 1;
            }
            map[r]
        })
        .collect()
}

impl Warm {
    fn new(config: Config, jobs: usize) -> Self {
        let grid = TileGrid::new(TILE_GRID.0, TILE_GRID.1);
        Self {
            config,
            scratch: SplitScratch::new(),
            split: SplitResult::default(),
            edges: Vec::new(),
            ids: Vec::new(),
            merger: None,
            by_vertex: Vec::new(),
            pipe: HostPipeline::new(config, false),
            out: Segmentation::default(),
            tiled_jn: TiledRunner::new(config, false, grid, jobs),
            tiled_j1: TiledRunner::new(config, false, grid, 1),
            tiled_out: Segmentation::default(),
            tile_pipe: HostPipeline::new(config, false),
            crop: Image::new(1, 1, 0),
        }
    }

    /// The host stages called one by one; returns the staged labels' digest
    /// and this image's per-iteration `(ms, active edges at start)`.
    fn staged(
        &mut self,
        img: &Image<u8>,
        spans: &mut Spans,
        unit: usize,
        image: usize,
        s: &mut Sample,
    ) -> (u64, Vec<(f64, u64)>) {
        let cfg = self.config;
        let id = spans.open("split", unit, image);
        split_into(img, &cfg, false, &mut self.scratch, &mut self.split);
        s.split_ms += spans.close(id);
        s.squares += self.split.num_squares() as f64;

        let id = spans.open("graph.pairs", unit, image);
        adjacent_label_pairs_into(
            &self.split.square_of,
            img.width(),
            img.height(),
            cfg.connectivity,
            &mut self.edges,
        );
        s.pairs_ms += spans.close(id);
        s.edges += self.edges.len() as f64;
        let stride = self.split.width as u32;
        self.ids.clear();
        self.ids
            .extend(self.split.squares.iter().map(|q| q.id(stride) as u64));

        let merger = self.merger.get_or_insert_with(|| {
            // First use only: a cold merger to reset in place from now on.
            let rag = Rag::from_parts(self.split.stats.clone(), self.edges.clone());
            Merger::new(rag, self.ids.clone(), &cfg, false)
        });
        let id = spans.open("merge.build", unit, image);
        merger.reset_from(&self.split.stats, &self.edges, &self.ids, &cfg, false);
        s.build_ms += spans.close(id);

        let merge_id = spans.open("merge.steps", unit, image);
        let mut iters = Vec::new();
        let mut sink = PhaseSink {
            spans,
            parent: merge_id,
            image,
            open: 0,
            choice_ms: 0.0,
            apply_ms: 0.0,
            compact_ms: 0.0,
        };
        while !merger.is_done() {
            let active = merger.active_edges() as u64;
            let it = sink.spans.open("merge.iteration", merge_id, image);
            sink.parent = it;
            let report = merger.step_traced(&mut sink);
            iters.push((sink.spans.close(it), active));
            s.merges += f64::from(report.merges);
            if report.merges == 0 {
                s.zero_merge_iters += 1.0;
            }
        }
        let (choice, apply, compact) = (sink.choice_ms, sink.apply_ms, sink.compact_ms);
        s.merge_ms += spans.close(merge_id);
        s.choice_ms += choice;
        s.apply_ms += apply;
        s.compact_ms += compact;
        s.iterations += f64::from(merger.iterations());
        s.relabel_work += merger.relabel_work() as f64;
        s.compactions += merger.compactions() as f64;
        s.peak_active_edges += merger.peak_active_edges() as f64;

        let id = spans.open("label.resolve", unit, image);
        merger.labels_by_vertex_into(&mut self.by_vertex);
        s.resolve_ms += spans.close(id);
        (
            label_hash(&gather(&self.split.square_of, &self.by_vertex)),
            iters,
        )
    }

    /// Warm `HostPipeline` under the null sink and under a `Recorder`.
    fn pipeline(
        &mut self,
        img: &Image<u8>,
        spans: &mut Spans,
        unit: usize,
        image: usize,
        s: &mut Sample,
    ) -> u64 {
        let id = spans.open("pipeline.warm", unit, image);
        self.pipe
            .run_image_into(img, &mut NullTelemetry, &mut self.out);
        s.warm_ms += spans.close(id);
        let hash = label_hash(&self.out.labels);
        let mut rec = Recorder::new();
        let id = spans.open("pipeline.recorder", unit, image);
        self.pipe.run_image_into(img, &mut rec, &mut self.out);
        s.recorder_ms += spans.close(id);
        hash
    }

    /// Warm tiled runs at `jobs` and at 1, plus per-tile pipeline walls on
    /// crops. Returns the two runs' digests.
    fn tiles(
        &mut self,
        img: &Image<u8>,
        spans: &mut Spans,
        unit: usize,
        image: usize,
        s: &mut Sample,
    ) -> (u64, u64) {
        let id = spans.open("tiles.run", unit, image);
        let st = self
            .tiled_jn
            .run_into(img, &mut NullTelemetry, &mut self.tiled_out);
        s.tiles_ms += spans.close(id);
        let hash_jn = label_hash(&self.tiled_out.labels);
        s.seam_edges += st.seam_edges as f64;
        s.stitch_merges += st.stitch_merges as f64;
        s.stitch_iterations += f64::from(st.stitch_iterations);

        let id = spans.open("tiles.run_j1", unit, image);
        self.tiled_j1
            .run_into(img, &mut NullTelemetry, &mut self.tiled_out);
        s.tiles_j1_ms += spans.close(id);
        let hash_j1 = label_hash(&self.tiled_out.labels);

        let (w, h) = (img.width(), img.height());
        let grid = TileGrid::new(TILE_GRID.0, TILE_GRID.1).clamp_to(w, h);
        let mut walls = Vec::new();
        for r in 0..grid.rows() {
            for c in 0..grid.cols() {
                let t = grid.tile(r, c, w, h);
                img.crop_into(t.x0, t.y0, t.width, t.height, &mut self.crop);
                let id = spans.open("tiles.tile", unit, image);
                self.tile_pipe
                    .run_image_into(&self.crop, &mut NullTelemetry, &mut self.out);
                walls.push(spans.close(id));
            }
        }
        let sum: f64 = walls.iter().sum();
        let max = walls.iter().copied().fold(0.0, f64::max);
        s.tile_sum_ms += sum;
        s.tile_imbalance += max / (sum / walls.len() as f64);
        (hash_jn, hash_j1)
    }
}

/// `run_batch` over the unit's images at `jobs` workers; returns the wall in
/// ms, the straggler gap in ms and the per-image digests.
fn batch(
    images: &[Image<u8>],
    config: Config,
    jobs: usize,
    spans: &mut Spans,
    unit: usize,
) -> (f64, f64, Vec<u64>, bool) {
    let done: Mutex<Vec<(Duration, ThreadId)>> = Mutex::new(Vec::new());
    let mut outs: Vec<Vec<u32>> = vec![Vec::new(); images.len()];
    let id = spans.open(if jobs == 1 { "batch.j1" } else { "batch" }, unit, 0);
    let t0 = Instant::now();
    let summary = run_batch(
        images,
        &BatchOptions::new().jobs(jobs),
        || Box::new(HostPipeline::<u8>::new(config, false)) as Box<dyn Pipeline + Send>,
        &mut NullTelemetry,
        |i, seg| {
            outs[i].clear();
            outs[i].extend_from_slice(&seg.labels);
            done.lock()
                .expect("completion log lock")
                .push((t0.elapsed(), std::thread::current().id()));
        },
    );
    let ms = spans.close(id);
    let done = done.into_inner().expect("completion log lock");
    // Straggler: the last completion minus the latest last-completion of
    // any other worker (the batch start when only one worker completed).
    let last = done.iter().map(|d| d.0).max().unwrap_or_default();
    let last_worker = done.iter().max_by_key(|d| d.0).map(|d| d.1);
    let others = done
        .iter()
        .filter(|d| Some(d.1) != last_worker)
        .map(|d| d.0)
        .max()
        .unwrap_or_default();
    let straggler = (last - others).as_secs_f64() * 1e3;
    let hashes = outs.iter().map(|l| label_hash(l)).collect();
    (ms, straggler, hashes, summary.all_ok())
}

/// Per-iteration ns per active edge, pooled over the unit's images by
/// iteration index: `(iteration 0, worst ratio to iteration 0)` over the
/// iterations that keep at least [`DRIFT_MIN_SHARE`] of the initial edges.
fn per_edge(iters: &[Vec<(f64, u64)>]) -> (f64, f64) {
    let n = iters.iter().map(Vec::len).max().unwrap_or(0);
    let mut ms = vec![0.0; n];
    let mut edges = vec![0u64; n];
    for img in iters {
        for (i, &(t, e)) in img.iter().enumerate() {
            ms[i] += t;
            edges[i] += e;
        }
    }
    if n == 0 || edges[0] == 0 {
        return (0.0, 0.0);
    }
    let ns = |i: usize| ms[i] * 1e6 / edges[i] as f64;
    let it0 = ns(0);
    let drift = (0..n)
        .filter(|&i| edges[i] as f64 >= DRIFT_MIN_SHARE * edges[0] as f64)
        .map(|i| ns(i) / it0)
        .fold(0.0, f64::max);
    (it0, drift)
}

/// Results of a traced run.
pub struct Layers {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Outputs checked.
    pub attempted: usize,
    /// Checks failed.
    pub failed: usize,
    /// Check notes.
    pub notes: Vec<String>,
    spans: Spans,
}

impl Layers {
    /// Writes the recorded spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"image\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.parent,
                s.name,
                s.image,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
        f.flush()
    }
}

/// The traced run of workload `w`.
pub fn run(w: Workload, seed: u64, images: &[Image<u8>], pgm: &[Vec<u8>], seconds: f64) -> Layers {
    let config = w.config(seed);
    let jobs = nproc();
    let mut spans = Spans::new();
    let mut checks = Checks::default();
    let mut warm = Warm::new(config, jobs);

    // Warm-up: every reused engine sees every image once, unmeasured.
    {
        let mut scratch = Sample::default();
        for (i, img) in images.iter().enumerate() {
            let pipe_hash = warm.pipeline(img, &mut spans, 0, i, &mut scratch);
            let violations =
                verify_segmentation(img, &warm.out, &config).map_or_else(|v| v.len(), |()| 0);
            checks.expect(violations == 0, || {
                format!("image {i}: {violations} segmentation violations")
            });
            let (staged, _) = warm.staged(img, &mut spans, 0, i, &mut scratch);
            checks.expect(staged == pipe_hash, || {
                format!("image {i}: staged calls differ from HostPipeline")
            });
            warm.tiles(img, &mut spans, 0, i, &mut scratch);
        }
    }

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    while samples.len() < MIN_REPS || (start.elapsed() < budget && start.elapsed() < HARD_STOP) {
        let mut s = Sample::default();
        let unit = spans.open("unit", 0, 0);
        let mut iters = Vec::new();
        let mut pipe_hashes = Vec::new();
        for (i, bytes) in pgm.iter().enumerate() {
            let id = spans.open("pgm.read", unit, i);
            let img = decode(bytes);
            s.decode_ms += spans.close(id);

            let pipe_hash = warm.pipeline(&img, &mut spans, unit, i, &mut s);
            let (staged, it) = warm.staged(&img, &mut spans, unit, i, &mut s);
            iters.push(it);
            checks.expect(staged == pipe_hash, || {
                format!("image {i}: staged calls differ from HostPipeline")
            });
            let (jn, j1) = warm.tiles(&img, &mut spans, unit, i, &mut s);
            checks.expect(jn == j1, || {
                format!("image {i}: tiled jobs={jobs} differs from jobs=1")
            });

            let id = spans.open("pipeline.cold", unit, i);
            let mut cold = HostPipeline::<u8>::new(config, false);
            let mut out = Segmentation::default();
            cold.run_image_into(&img, &mut NullTelemetry, &mut out);
            s.cold_ms += spans.close(id);
            checks.expect(label_hash(&out.labels) == pipe_hash, || {
                format!("image {i}: cold pipeline differs from warm")
            });
            pipe_hashes.push(pipe_hash);
        }
        let (it0, drift) = per_edge(&iters);
        s.ns_per_edge_it0 = it0;
        s.ns_per_edge_drift = drift;

        let (ms, _, h1, ok1) = batch(images, config, 1, &mut spans, unit);
        s.batch_j1_ms = ms;
        let (ms, straggler, hn, okn) = batch(images, config, jobs, &mut spans, unit);
        s.batch_ms = ms;
        s.straggler_ms = straggler;
        checks.expect(ok1 && okn && h1 == pipe_hashes && hn == pipe_hashes, || {
            "run_batch output differs from HostPipeline".to_string()
        });
        // Imbalance is a per-image ratio: report its mean over the unit.
        s.tile_imbalance /= images.len() as f64;
        spans.close(unit);
        samples.push(s);
    }

    let px: f64 = images.iter().map(|i| i.len() as f64).sum();
    let bytes: f64 = pgm.iter().map(|b| b.len() as f64).sum();
    let mut notes = checks.notes;
    notes.push(format!(
        "{} repetitions after one warm-up pass; {} outputs checked",
        samples.len(),
        checks.attempted
    ));
    Layers {
        metrics: metrics(&samples, px, bytes, jobs),
        attempted: checks.attempted,
        failed: checks.failed,
        notes,
        spans,
    }
}

/// The per-layer metrics: medians over repetitions of per-unit figures;
/// `px` and `bytes` are the unit's pixel and PGM byte counts.
fn metrics(samples: &[Sample], px: f64, bytes: f64, jobs: usize) -> Vec<Metric> {
    let m = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let warm_ms = m(|s| s.warm_ms);
    let staged_ms = m(|s| s.split_ms + s.pairs_ms + s.build_ms + s.merge_ms + s.resolve_ms);
    let iterations = m(|s| s.iterations);
    let tiles_ms = m(|s| s.tiles_ms);
    let tiles_j1 = m(|s| s.tiles_j1_ms);
    let batch_ms = m(|s| s.batch_ms);
    let batch_j1 = m(|s| s.batch_j1_ms);
    let jobs_f = jobs as f64;
    vec![
        metric("pgm.decode_ms", "ms", m(|s| s.decode_ms)),
        metric("pgm.mb_s", "MB/s", bytes / 1e3 / m(|s| s.decode_ms)),
        metric("split.ms", "ms", m(|s| s.split_ms)),
        metric(
            "split.squares_per_kpx",
            "1/kpx",
            m(|s| s.squares) * 1e3 / px,
        ),
        metric("split.share", "frac", m(|s| s.split_ms / s.warm_ms)),
        metric("graph.pairs_ms", "ms", m(|s| s.pairs_ms)),
        metric("graph.edges", "count", m(|s| s.edges)),
        metric("graph.ns_per_edge", "ns", m(|s| s.pairs_ms * 1e6 / s.edges)),
        metric("merge.build_ms", "ms", m(|s| s.build_ms)),
        metric("merge.ms", "ms", m(|s| s.merge_ms)),
        metric(
            "merge.share",
            "frac",
            m(|s| (s.build_ms + s.merge_ms) / s.warm_ms),
        ),
        metric("merge.iterations", "count", iterations),
        metric("merge.choice_ms", "ms", m(|s| s.choice_ms)),
        metric("merge.apply_ms", "ms", m(|s| s.apply_ms)),
        metric("merge.compact_ms", "ms", m(|s| s.compact_ms)),
        metric("merge.ns_per_edge.it0", "ns", m(|s| s.ns_per_edge_it0)),
        metric(
            "merge.ns_per_edge.drift",
            "ratio",
            m(|s| s.ns_per_edge_drift),
        ),
        metric(
            "merge.merges_per_iter",
            "count",
            m(|s| s.merges) / iterations,
        ),
        metric(
            "merge.wasted_iter_frac",
            "frac",
            m(|s| s.zero_merge_iters) / iterations,
        ),
        metric("merge.relabel_work", "count", m(|s| s.relabel_work)),
        metric("merge.compactions", "count", m(|s| s.compactions)),
        metric(
            "merge.peak_active_edges",
            "count",
            m(|s| s.peak_active_edges),
        ),
        metric("label.resolve_ms", "ms", m(|s| s.resolve_ms)),
        metric("pipeline.warm_ms", "ms", warm_ms),
        metric("pipeline.cold_ms", "ms", m(|s| s.cold_ms)),
        metric("pipeline.residual_ms", "ms", warm_ms - staged_ms),
        metric("tiles.ms", "ms", tiles_ms),
        metric("tiles.j1_ms", "ms", tiles_j1),
        metric("tiles.scaling_eff", "ratio", tiles_j1 / (jobs_f * tiles_ms)),
        metric("tiles.vs_whole", "ratio", warm_ms / tiles_j1),
        metric("tiles.seam_edges", "count", m(|s| s.seam_edges)),
        metric("tiles.stitch_merges", "count", m(|s| s.stitch_merges)),
        metric(
            "tiles.stitch_iterations",
            "count",
            m(|s| s.stitch_iterations),
        ),
        metric("tiles.tile_imbalance", "ratio", m(|s| s.tile_imbalance)),
        metric(
            "tiles.stitch_ms_derived",
            "ms",
            m(|s| s.tiles_j1_ms - s.tile_sum_ms),
        ),
        metric("batch.ms", "ms", batch_ms),
        metric("batch.j1_ms", "ms", batch_j1),
        metric("batch.scaling_eff", "ratio", batch_j1 / (jobs_f * batch_ms)),
        metric("batch.straggler_ms", "ms", m(|s| s.straggler_ms)),
        metric(
            "telemetry.overhead_frac",
            "frac",
            m(|s| s.recorder_ms / s.warm_ms - 1.0),
        ),
    ]
}

/// `(name, unit)` of every per-layer metric, in report order.
#[cfg(test)]
pub fn names() -> Vec<(&'static str, &'static str)> {
    metrics(&[Sample::default()], 1.0, 1.0, 1)
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}
