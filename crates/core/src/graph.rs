//! The region adjacency graph (RAG).
//!
//! *"The merge is achieved by reformulating the region growing problem as a
//! weighted, un-directed graph problem, where the vertices of the graph
//! represent the regions in the image, and the edges represent the
//! neighboring relationships among these regions."*
//!
//! Edge weights are not stored: they derive from the current vertex
//! statistics (`max(max_u, max_v) − min(min_u, min_v)` for the pixel-range
//! criterion) and change as regions merge, so the merge engine recomputes
//! them on the fly — the same trick that lets the CM implementations keep
//! everything in flat arrays.

use crate::config::{Connectivity, RegionStats};
use crate::split::SplitResult;
use rg_imaging::Intensity;
use std::borrow::Cow;

/// A region adjacency graph: `stats[v]` for each vertex, plus the canonical
/// (sorted, deduplicated, `u < v`) undirected edge list.
///
/// Statistics are carried as a [`Cow`]: [`Rag::from_split`] *borrows* the
/// split result's stats instead of cloning them (the merge engine converts
/// them into its SoA layout in one pass either way), while hand-built
/// graphs (tests, synthetic workloads) own their vector.
///
/// The host pipeline does not materialise a `Rag`: its merger builds its
/// adjacency straight from the split's pixel map
/// ([`crate::merge::Merger::reset_from_split`]).
#[derive(Debug, Clone)]
pub struct Rag<'a, P: Intensity> {
    /// Per-vertex region statistics, indexed by dense vertex id.
    pub stats: Cow<'a, [RegionStats<P>]>,
    /// Undirected edges with `u < v`, sorted lexicographically, unique.
    pub edges: Vec<(u32, u32)>,
}

impl<P: Intensity> Rag<'static, P> {
    /// Builds a RAG owning its statistics (hand-built graphs).
    pub fn from_parts(stats: Vec<RegionStats<P>>, edges: Vec<(u32, u32)>) -> Self {
        Self {
            stats: Cow::Owned(stats),
            edges,
        }
    }
}

impl<'a, P: Intensity> Rag<'a, P> {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.stats.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Builds the RAG for the squares of a split result, borrowing the
    /// split's statistics (no copy).
    pub fn from_split(split: &'a SplitResult<P>, connectivity: Connectivity) -> Self {
        let edges = adjacent_label_pairs(&split.square_of, split.width, split.height, connectivity);
        Self {
            stats: Cow::Borrowed(&split.stats),
            edges,
        }
    }
}

/// Upper bound on the pixel-adjacent pairs of a `width`×`height` label map
/// under `connectivity` (every pixel a label of its own).
pub fn pixel_pairs_bound(width: usize, height: usize, connectivity: Connectivity) -> usize {
    let four = width * height.saturating_sub(1) + width.saturating_sub(1) * height;
    match connectivity {
        Connectivity::Four => four,
        Connectivity::Eight => four + 2 * width.saturating_sub(1) * height.saturating_sub(1),
    }
}

/// Calls `f(a, b)` for the pixel-adjacent pairs of distinct labels of a
/// row-major label map, in raster order of the pixel holding `a`.
///
/// A pair identical to the one a pixel back along the same boundary is
/// skipped: the pair across a vertical boundary is compared with the pair
/// one row up, the pairs across a horizontal boundary (down and, under
/// 8-connectivity, the two diagonals) with the pair one column left. A
/// boundary between two squares therefore emits its pair once per run
/// instead of once per pixel. Duplicates still remain (a pair that touches
/// along two separate runs, or along both a row and a column), so every
/// consumer dedups.
pub fn for_each_boundary_pair(
    labels: &[u32],
    width: usize,
    height: usize,
    connectivity: Connectivity,
    mut f: impl FnMut(u32, u32),
) {
    assert_eq!(labels.len(), width * height, "label buffer size mismatch");
    let eight = connectivity == Connectivity::Eight;
    for y in 0..height {
        let row = &labels[y * width..(y + 1) * width];
        // Rightward pairs: one row up is the previous pixel of the boundary.
        if y == 0 {
            for x in 1..width {
                if row[x - 1] != row[x] {
                    f(row[x - 1], row[x]);
                }
            }
        } else {
            let above = &labels[(y - 1) * width..y * width];
            for x in 1..width {
                let (a, b) = (row[x - 1], row[x]);
                if a != b && (above[x - 1] != a || above[x] != b) {
                    f(a, b);
                }
            }
        }
        if y + 1 == height {
            continue;
        }
        // Downward (and diagonal) pairs: one column left is the previous
        // pixel of the boundary.
        let below = &labels[(y + 1) * width..(y + 2) * width];
        for x in 0..width {
            let (a, b) = (row[x], below[x]);
            let same_left = x > 0 && row[x - 1] == a;
            if a != b && !(same_left && below[x - 1] == b) {
                f(a, b);
            }
            if eight {
                if x + 1 < width {
                    let b = below[x + 1];
                    if a != b && !(same_left && below[x] == b) {
                        f(a, b);
                    }
                }
                if x > 0 {
                    let b = below[x - 1];
                    if a != b && !(same_left && x > 1 && below[x - 2] == b) {
                        f(a, b);
                    }
                }
            }
        }
    }
}

/// Scans a row-major label map and returns every unordered pair of distinct
/// labels that are pixel-adjacent under `connectivity`, as `(u, v)` with
/// `u < v`, sorted and deduped.
///
/// Used to build the canonical edge list of a [`Rag`] and to verify
/// maximality of a final segmentation.
pub fn adjacent_label_pairs(
    labels: &[u32],
    width: usize,
    height: usize,
    connectivity: Connectivity,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    adjacent_label_pairs_into(labels, width, height, connectivity, &mut out);
    out
}

/// [`adjacent_label_pairs`] writing into a caller-owned buffer (cleared
/// first). Allocates one bucket counter per label per call; see
/// [`bucket_label_pairs`] for the allocation-free form.
pub fn adjacent_label_pairs_into(
    labels: &[u32],
    width: usize,
    height: usize,
    connectivity: Connectivity,
    out: &mut Vec<(u32, u32)>,
) {
    bucket_label_pairs(labels, width, height, connectivity, &mut Vec::new(), out);
}

/// The counting emission behind [`adjacent_label_pairs_into`], with the
/// per-label bucket counters in a caller-owned buffer (no heap allocation
/// once `counts` and `out` have reached their high-water capacity).
///
/// Two scans of [`for_each_boundary_pair`]: the first counts the pairs of
/// each smaller label, the second scatters every pair into its label's
/// bucket. Each bucket is then sorted and deduped on its own, so the
/// output is in `(u, v)` order without a sort of the whole list.
pub(crate) fn bucket_label_pairs(
    labels: &[u32],
    width: usize,
    height: usize,
    connectivity: Connectivity,
    counts: &mut Vec<u32>,
    out: &mut Vec<(u32, u32)>,
) {
    out.clear();
    let n = labels.iter().max().map_or(0, |&m| m as usize + 1);
    counts.clear();
    counts.resize(n + 1, 0);
    for_each_boundary_pair(labels, width, height, connectivity, |a, b| {
        counts[a.min(b) as usize + 1] += 1;
    });
    for u in 0..n {
        counts[u + 1] += counts[u];
    }
    // `counts[u]` is bucket `u`'s fill cursor, then its end.
    out.resize(counts[n] as usize, (0, 0));
    for_each_boundary_pair(labels, width, height, connectivity, |a, b| {
        let (u, v) = if a < b { (a, b) } else { (b, a) };
        let cursor = &mut counts[u as usize];
        out[*cursor as usize] = (u, v);
        *cursor += 1;
    });
    let (mut start, mut kept) = (0, 0);
    for &end in &counts[..n] {
        let end = end as usize;
        out[start..end].sort_unstable();
        for i in start..end {
            // Buckets hold distinct `u`, so the previous kept pair can only
            // equal this one within the bucket.
            if kept == 0 || out[kept - 1] != out[i] {
                out[kept] = out[i];
                kept += 1;
            }
        }
        start = end;
    }
    out.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::split::split;
    use rg_imaging::synth;

    #[test]
    fn figure1_rag() {
        // Squares (dense index by raster order of top-left):
        //   0: 2×2 @ (0,0)   1: 1×1 @ (2,0)  2: 1×1 @ (3,0)
        //   3: 1×1 @ (2,1)   4: 1×1 @ (3,1)  5: 2×2 @ (0,2)  6: 2×2 @ (2,2)
        let img = synth::figure1_image();
        let s = split(&img, &Config::with_threshold(3));
        let rag = Rag::from_split(&s, Connectivity::Four);
        assert_eq!(rag.num_vertices(), 7);
        let expect = vec![
            (0, 1),
            (0, 3),
            (0, 5),
            (1, 2),
            (1, 3),
            (2, 4),
            (3, 4),
            (3, 6),
            (4, 6),
            (5, 6),
        ];
        assert_eq!(rag.edges, expect);
    }

    #[test]
    fn eight_connectivity_adds_diagonals() {
        // 2×2 checkerboard of singleton regions: 4-conn has 4 edges, 8-conn
        // adds the two diagonals.
        let labels = vec![0, 1, 2, 3];
        let four = adjacent_label_pairs(&labels, 2, 2, Connectivity::Four);
        assert_eq!(four, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let eight = adjacent_label_pairs(&labels, 2, 2, Connectivity::Eight);
        assert_eq!(eight, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }

    /// Every pixel-adjacent pair, sorted and deduped the obvious way: the
    /// output the bucketed emission must reproduce byte for byte.
    fn naive_pairs(labels: &[u32], w: usize, h: usize, conn: Connectivity) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut push = |a: u32, b: u32| {
            if a != b {
                out.push((a.min(b), a.max(b)));
            }
        };
        for y in 0..h {
            for x in 0..w {
                let a = labels[y * w + x];
                if x + 1 < w {
                    push(a, labels[y * w + x + 1]);
                }
                if y + 1 < h {
                    push(a, labels[(y + 1) * w + x]);
                    if conn == Connectivity::Eight {
                        if x + 1 < w {
                            push(a, labels[(y + 1) * w + x + 1]);
                        }
                        if x > 0 {
                            push(a, labels[(y + 1) * w + x - 1]);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn bucketed_pairs_match_sorted_scan() {
        let scenes = [
            (
                80,
                48,
                split(
                    &synth::random_rects(80, 48, 9, 5),
                    &Config::with_threshold(15),
                )
                .square_of,
            ),
            (
                33,
                21,
                split(
                    &synth::uniform_noise(33, 21, 0, 40, 3),
                    &Config::with_threshold(9),
                )
                .square_of,
            ),
            // Non-raster label order, and a label that never appears.
            (3, 3, vec![8, 8, 2, 8, 5, 2, 0, 0, 2]),
            (1, 1, vec![0]),
            (0, 0, Vec::new()),
        ];
        for (w, h, labels) in &scenes {
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let got = adjacent_label_pairs(labels, *w, *h, conn);
                assert_eq!(got, naive_pairs(labels, *w, *h, conn), "{w}x{h} {conn:?}");
            }
        }
    }

    #[test]
    fn boundary_scan_skips_runs_but_covers_every_pair() {
        let scan = |labels: &[u32], w, h, conn| {
            let mut seen = Vec::new();
            for_each_boundary_pair(labels, w, h, conn, |a, b| seen.push((a, b)));
            seen
        };
        // Two 4×4 squares side by side: one vertical boundary, four
        // pixel pairs, emitted once.
        let side: Vec<u32> = (0..32).map(|i| u32::from(i % 8 >= 4)).collect();
        assert_eq!(scan(&side, 8, 4, Connectivity::Four), vec![(0, 1)]);
        // Stacked: the down pair and each diagonal once per run.
        let stacked: Vec<u32> = (0..32).map(|i| u32::from(i >= 16)).collect();
        assert_eq!(scan(&stacked, 8, 4, Connectivity::Four), vec![(0, 1)]);
        assert_eq!(scan(&stacked, 8, 4, Connectivity::Eight), vec![(0, 1); 3]);
        assert_eq!(pixel_pairs_bound(8, 4, Connectivity::Four), 8 * 3 + 7 * 4);
        assert_eq!(
            pixel_pairs_bound(8, 4, Connectivity::Eight),
            8 * 3 + 7 * 4 + 2 * 7 * 3
        );
        assert_eq!(pixel_pairs_bound(0, 0, Connectivity::Eight), 0);
    }

    #[test]
    fn edges_are_canonical() {
        let img = synth::circle_collection(64);
        let s = split(&img, &Config::with_threshold(10));
        let rag = Rag::from_split(&s, Connectivity::Four);
        for w in rag.edges.windows(2) {
            assert!(w[0] < w[1], "edges must be strictly sorted/unique");
        }
        assert!(rag.edges.iter().all(|&(u, v)| u < v));
        assert!(rag
            .edges
            .iter()
            .all(|&(u, v)| (v as usize) < rag.num_vertices() && (u as usize) < rag.num_vertices()));
    }

    #[test]
    fn into_variant_matches_with_reused_buffer() {
        let mut buf = vec![(7u32, 9u32)]; // stale content must be cleared
        for seed in 0..3 {
            let img = synth::random_rects(40, 24, 6, seed);
            let s = split(&img, &Config::with_threshold(12));
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let fresh = adjacent_label_pairs(&s.square_of, 40, 24, conn);
                adjacent_label_pairs_into(&s.square_of, 40, 24, conn, &mut buf);
                assert_eq!(fresh, buf);
            }
        }
    }

    #[test]
    fn single_region_image_has_no_edges() {
        let img: rg_imaging::Image<u8> = rg_imaging::Image::new(8, 8, 3);
        let s = split(&img, &Config::with_threshold(5));
        let rag = Rag::from_split(&s, Connectivity::Four);
        assert_eq!(rag.num_vertices(), 1);
        assert!(rag.edges.is_empty());
    }
}
