//! Pinned work and identity counters for the merge, split, batch and tiled
//! paths.
//!
//! Wall time is measured end to end by `perfbench/` (see `BENCHMARK.json`);
//! this suite guards the machine-independent numbers behind it. Each row
//! runs a fixed scene, seed, size, threshold and tie policy and checks two
//! kinds of counter against the value pinned here:
//!
//! * **identity** counters (`initial_edges`, `num_regions`, `num_squares`,
//!   `seam_edges`) must match exactly: a change means the output changed;
//! * **work** counters (iterations, peak live edges, relabel work,
//!   compactions, split cells/words) may grow at most 15 % over the pin:
//!   more means an algorithmic regression, less is welcome (re-pin).
//!
//! The 2048² tiled rows are slow unoptimised, so they run only in release:
//!
//! ```text
//! cargo test --release -p rg-core --test bench_guards -- --include-ignored
//! ```

use rg_core::graph::Rag;
use rg_core::{
    run_batch_collect, segment, split, split_into, split_reference, BatchOptions, Config,
    Criterion, HostPipeline, MergeBackend, Merger, NullTelemetry, Segmentation, SplitResult,
    SplitScratch, TieBreak, TileGrid, TiledRunner,
};
use rg_imaging::{synth, GrayImage};

const RANDOM: TieBreak = TieBreak::Random { seed: 1 };
const SMALLEST: TieBreak = TieBreak::SmallestId;
const CSR: MergeBackend = MergeBackend::Csr;
const REFERENCE: MergeBackend = MergeBackend::Reference;

/// Asserts a work counter grew at most 15 % over its pin.
#[track_caller]
fn assert_work(what: &str, got: u64, pin: u64) {
    assert!(
        got * 100 <= pin * 115,
        "{what}: {got} exceeds pin {pin} by more than 15 %"
    );
}

/// Pinned merge row: `(tie, backend, initial_edges, num_regions,
/// iterations, peak_active_edges, relabel_work, compactions)`.
type MergePin = (TieBreak, MergeBackend, u64, usize, u32, u64, u64, u64);

/// Runs the merge of every pinned row of one 512² scene and checks its
/// counters, then that a warm `HostPipeline` — whose merger builds its
/// adjacency straight from the split's pixel map — counts exactly the
/// same, and that under each tie policy CSR labels every vertex exactly as
/// the reference backend does while reading no more slots.
fn check_merge_scene(name: &str, img: &GrayImage, threshold: u32, pins: &[MergePin]) {
    let mut runs = Vec::new();
    for &(tie, backend, edges, regions, iters, peak, work, compactions) in pins {
        let cfg = Config::with_threshold(threshold)
            .tie_break(tie)
            .merge_backend(backend);
        let s = split(img, &cfg);
        let rag = Rag::from_split(&s, cfg.connectivity);
        let what = format!("{name}/{tie:?}/{}", backend.name());
        assert_eq!(rag.num_edges() as u64, edges, "{what}: initial_edges");
        let stride = s.width as u32;
        let ids = s.squares.iter().map(|sq| sq.id(stride) as u64).collect();
        let mut merger = Merger::new(rag, ids, &cfg, false);
        let summary = merger.run();
        assert_eq!(summary.num_regions, regions, "{what}: num_regions");
        assert_work(
            &format!("{what}: iterations"),
            summary.iterations.into(),
            iters.into(),
        );
        let peak_got = merger.peak_active_edges();
        assert_work(&format!("{what}: peak_active_edges"), peak_got, peak);
        let work_got = merger.relabel_work();
        assert_work(&format!("{what}: relabel_work"), work_got, work);
        let compact_got = merger.compactions();
        assert_work(&format!("{what}: compactions"), compact_got, compactions);
        runs.push((tie, backend, work_got, merger.labels_by_vertex()));

        let mut pipe = HostPipeline::<u8>::new(cfg, false);
        pipe.run_image(img);
        pipe.run_image(img);
        let m = pipe.workspace().merger().expect("pipeline ran");
        assert_eq!(
            (
                m.num_regions(),
                m.iterations(),
                m.peak_active_edges(),
                m.relabel_work(),
                m.compactions()
            ),
            (
                summary.num_regions,
                summary.iterations,
                peak_got,
                work_got,
                compact_got
            ),
            "{what}: HostPipeline merger counters differ from Merger::new"
        );
    }
    for (tie, backend, csr, csr_labels) in &runs {
        if *backend != CSR {
            continue;
        }
        let (_, _, reference, ref_labels) = runs
            .iter()
            .find(|r| r.0 == *tie && r.1 == REFERENCE)
            .expect("reference row pinned");
        assert!(
            csr_labels == ref_labels,
            "{name}/{tie:?}: CSR labels differ from the reference backend's"
        );
        assert!(
            csr <= reference,
            "{name}/{tie:?}: CSR relabel_work {csr} > reference {reference}"
        );
    }
}

#[test]
fn merge_noise_512() {
    let img = synth::uniform_noise(512, 512, 120, 135, 7);
    #[rustfmt::skip]
    let pins: &[MergePin] = &[
        (RANDOM,   CSR,       327028, 27392, 22, 226859, 1439700,  22),
        (RANDOM,   REFERENCE, 327028, 27392, 22, 226859, 10775288, 0),
        (SMALLEST, CSR,       327028, 27367, 40, 226859, 1614212,  40),
        (SMALLEST, REFERENCE, 327028, 27367, 40, 226859, 12380618, 0),
    ];
    check_merge_scene("noise", &img, 10, pins);
}

/// The smallest-ID rows here and in `merge_circles_512` run thousands of
/// one-merge iterations: the case the CSR incremental pass is built for.
#[test]
fn merge_rects_512() {
    let img = synth::random_rects(512, 512, 40, 11);
    #[rustfmt::skip]
    let pins: &[MergePin] = &[
        (RANDOM,   CSR,       21032, 28, 41,   17301, 253358,   41),
        (RANDOM,   REFERENCE, 21032, 28, 41,   17301, 1916724,  0),
        (SMALLEST, CSR,       21032, 28, 1280, 17301, 1481368,  1280),
        (SMALLEST, REFERENCE, 21032, 28, 1280, 17301, 78458782, 0),
    ];
    check_merge_scene("rects", &img, 12, pins);
}

#[test]
fn merge_circles_512() {
    let img = synth::circle_collection(512);
    #[rustfmt::skip]
    let pins: &[MergePin] = &[
        (RANDOM,   CSR,       16289, 11, 48,   13227, 207422,    48),
        (RANDOM,   REFERENCE, 16289, 11, 48,   13227, 1555740,   0),
        (SMALLEST, CSR,       16289, 11, 3349, 13227, 1392884,   3349),
        (SMALLEST, REFERENCE, 16289, 11, 3349, 13227, 194171096, 0),
    ];
    check_merge_scene("circles", &img, 10, pins);
}

/// Pinned split row per criterion: `(criterion, num_squares, iterations,
/// [packed, reference] cells_folded, [packed, reference] words_tested)`.
type SplitPin = (Criterion, usize, u32, [u64; 2], [u64; 2]);

/// The packed split matches the reference oracle square for square, and
/// both engines' counters stay within their 512² pins, with packed never
/// above reference.
#[test]
fn split_counters_512() {
    const RANGE: Criterion = Criterion::PixelRange;
    const MEAN: Criterion = Criterion::MeanDifference;
    #[rustfmt::skip]
    let scenes: [(&str, u32, GrayImage, [SplitPin; 2]); 3] = [
        ("nested", 10, synth::nested_rects(512), [
            (RANGE, 1222,   7, [349524, 349525], [1406, 87380]),
            (MEAN,  1222,   7, [349520, 349525], [1406, 87380]),
        ]),
        ("rects", 12, synth::random_rects(512, 512, 40, 11), [
            (RANGE, 9199,   7, [349524, 349525], [1406, 87380]),
            (MEAN,  9199,   7, [349520, 349525], [1406, 87380]),
        ]),
        ("noise", 10, synth::uniform_noise(512, 512, 120, 135, 7), [
            (RANGE, 147700, 2, [348160, 349525], [1344, 86016]),
            (MEAN,  142867, 2, [344064, 349525], [1344, 86016]),
        ]),
    ];
    let mut scratch = SplitScratch::new();
    let mut packed: SplitResult<u8> = SplitResult::default();
    for (name, threshold, img, pins) in &scenes {
        for &(crit, squares, iters, cells, words) in pins {
            let cfg = Config::with_threshold(*threshold).criterion(crit);
            split_into(img, &cfg, false, &mut scratch, &mut packed);
            let reference = split_reference(img, &cfg);
            let what = format!("{name}/{crit:?}");
            assert!(
                packed.squares == reference.squares
                    && packed.stats == reference.stats
                    && packed.square_of == reference.square_of,
                "{what}: packed output differs from reference"
            );
            for (engine, out, slot) in [("packed", &packed, 0), ("reference", &reference, 1)] {
                let what = format!("{what}/{engine}");
                assert_eq!(out.squares.len(), squares, "{what}: num_squares");
                assert_work(
                    &format!("{what}: iterations"),
                    out.iterations.into(),
                    iters.into(),
                );
                let m = out.metrics;
                assert_work(
                    &format!("{what}: cells_touched"),
                    m.cells_folded,
                    cells[slot],
                );
                assert_work(
                    &format!("{what}: words_tested"),
                    m.words_tested,
                    words[slot],
                );
            }
            let (p, r) = (packed.metrics, reference.metrics);
            assert!(
                p.cells_folded <= r.cells_folded && p.words_tested <= r.words_tested,
                "{what}: packed counters {p:?} exceed reference {r:?}"
            );
        }
    }
}

/// Sixteen 256² high-contrast speckle images (every pixel nearly its own
/// region) through the batch runtime: totals are pinned and each image
/// equals a sequential warm pipeline's output.
#[test]
fn batch_speckle_256() {
    let cfg = Config::with_threshold(12).tie_break(RANDOM);
    let imgs: Vec<GrayImage> = (0..16)
        .map(|s| synth::uniform_noise(256, 256, 0, 255, s))
        .collect();
    let (segs, summary) = run_batch_collect(
        &imgs,
        &BatchOptions::new().jobs(4),
        || Box::new(HostPipeline::<u8>::new(cfg, false)),
        &mut NullTelemetry,
    );
    assert!(summary.all_ok(), "batch failed: {summary:?}");

    let mut pipe = HostPipeline::<u8>::new(cfg, false);
    let mut seq = Segmentation::default();
    let (mut regions, mut iterations) = (0usize, 0u64);
    for (i, (img, seg)) in imgs.iter().zip(&segs).enumerate() {
        pipe.run_image_into(img, &mut NullTelemetry, &mut seq);
        assert_eq!(*seg, seq, "image {i}: batch output differs from sequential");
        regions += seg.num_regions;
        iterations += u64::from(seg.merge_iterations);
    }
    assert_eq!(regions, 863829, "total num_regions");
    assert_work("total merge iterations", iterations, 82);
}

/// Pinned `(num_regions, iterations)` of the whole-image run and of the
/// tiled run, plus the tiled run's `seam_edges`.
struct TilesPin {
    whole: (usize, u32),
    tiled: (usize, u32),
    seam_edges: usize,
}

/// A 2048² scene as a fresh whole-image run and through a warm 4x4
/// `TiledRunner` on one and four workers (`SmallestId`, T=10).
fn check_tiles_scene(name: &str, img: &GrayImage, pin: TilesPin) -> (Segmentation, Segmentation) {
    let cfg = Config::with_threshold(10).tie_break(SMALLEST);
    let whole = segment(img, &cfg);
    assert_eq!(whole.num_regions, pin.whole.0, "{name}/whole: num_regions");
    assert_work(
        &format!("{name}/whole: iterations"),
        whole.merge_iterations.into(),
        pin.whole.1.into(),
    );
    let mut tiled = Vec::new();
    for jobs in [1, 4] {
        let mut runner = TiledRunner::new(cfg, false, TileGrid::new(4, 4), jobs);
        let mut seg = Segmentation::default();
        let stats = runner.run_into(img, &mut NullTelemetry, &mut seg);
        let what = format!("{name}/tiled-j{jobs}");
        assert_eq!(seg.num_regions, pin.tiled.0, "{what}: num_regions");
        assert_eq!(stats.seam_edges, pin.seam_edges, "{what}: seam_edges");
        assert_work(
            &format!("{what}: iterations"),
            seg.merge_iterations.into(),
            pin.tiled.1.into(),
        );
        tiled.push(seg);
    }
    let j4 = tiled.pop().expect("jobs 4 run");
    let j1 = tiled.pop().expect("jobs 1 run");
    assert!(
        j1.labels == j4.labels,
        "{name}: tiled labels depend on worker count"
    );
    (whole, j1)
}

/// Flat cells separated by far more than T: the stitched partition equals
/// the whole-image run.
#[test]
#[cfg_attr(debug_assertions, ignore = "2048² rows: run with --release")]
fn tiles_shards_2048() {
    let img = synth::checkerboard(2048, 128, 40, 200);
    let pin = TilesPin {
        whole: (256, 0),
        tiled: (256, 0),
        seam_edges: 96,
    };
    let (whole, tiled) = check_tiles_scene("shards", &img, pin);
    assert!(
        whole.labels == tiled.labels,
        "shards: tiled labels differ from the whole-image run"
    );
}

/// Narrow-band noise: the tiled partition is pinned, four regions more
/// than the whole-image run.
#[test]
#[cfg_attr(debug_assertions, ignore = "2048² rows: run with --release")]
fn tiles_noise_2048() {
    let img = synth::uniform_noise(2048, 2048, 120, 135, 9);
    let pin = TilesPin {
        whole: (436185, 56),
        tiled: (436189, 61),
        seam_edges: 7110,
    };
    check_tiles_scene("noise", &img, pin);
}
