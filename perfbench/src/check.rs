//! Output checks: label digests, partition divergence and failure counting.
//!
//! Every engine emits canonical labels (compact, numbered by first
//! appearance in raster order), so two outputs describe the same partition
//! exactly when their label buffers are equal, and a digest of the buffer
//! stands in for the buffer.

use std::collections::HashMap;

/// 64-bit FNV-1a style digest of a label buffer (length included).
pub fn label_hash(labels: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ labels.len() as u64;
    for &l in labels {
        h = (h ^ u64::from(l)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of an ordered list of per-image digests (one stream unit).
pub fn combine(hashes: &[u64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ hashes.len() as u64;
    for &x in hashes {
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    }
    h
}

/// For each label of `from`, the label of `to` covering most of its pixels
/// (ties go to the smaller label), given the pixel-pair overlap counts.
fn majority(overlap: &HashMap<(u32, u32), u64>, flip: bool) -> HashMap<u32, u32> {
    let mut best: HashMap<u32, (u64, u32)> = HashMap::new();
    for (&(a, b), &n) in overlap {
        let (from, to) = if flip { (b, a) } else { (a, b) };
        let e = best.entry(from).or_insert((0, u32::MAX));
        if n > e.0 || (n == e.0 && to < e.1) {
            *e = (n, to);
        }
    }
    best.into_iter().map(|(k, (_, v))| (k, v)).collect()
}

/// Pixels whose label disagrees with the `exact` partition under majority
/// matching.
///
/// Each region of `test` is matched to the `exact` region covering most of
/// it, and each `exact` region to the `test` region covering most of it. A
/// pixel agrees when its two regions are each other's match; every other
/// pixel is divergent. Relabelling costs nothing; splitting an exact region
/// (or merging two) counts the pixels outside the larger part.
pub fn divergent_px(test: &[u32], exact: &[u32]) -> u64 {
    assert_eq!(test.len(), exact.len(), "partitions of different images");
    let mut overlap: HashMap<(u32, u32), u64> = HashMap::new();
    for (&a, &b) in test.iter().zip(exact) {
        *overlap.entry((a, b)).or_insert(0) += 1;
    }
    let t2e = majority(&overlap, false);
    let e2t = majority(&overlap, true);
    overlap
        .iter()
        .filter(|(&(a, b), _)| !(t2e[&a] == b && e2t[&b] == a))
        .map(|(_, &n)| n)
        .sum()
}

/// Units that fail their check: a unit fails when it panicked or reported
/// a failure (`None`), when its digest differs from `expected`, or when the
/// expected output itself failed validation (`expected_valid == false`).
pub fn failed_units(unit_hashes: &[Option<u64>], expected: u64, expected_valid: bool) -> usize {
    unit_hashes
        .iter()
        .filter(|h| !expected_valid || **h != Some(expected))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    // A 4×4 image: left half region A, right half split into top/bottom.
    const EXACT: [u32; 16] = [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 2, 2];

    #[test]
    fn identical_partitions_do_not_diverge() {
        assert_eq!(divergent_px(&EXACT, &EXACT), 0);
    }

    #[test]
    fn relabelling_does_not_diverge() {
        let relabelled: Vec<u32> = EXACT.iter().map(|&l| [7, 3, 5][l as usize]).collect();
        assert_eq!(divergent_px(&relabelled, &EXACT), 0);
        assert_eq!(divergent_px(&EXACT, &relabelled), 0);
    }

    #[test]
    fn merged_regions_count_the_minority_part() {
        // Regions 1 and 2 of the exact partition merged into one.
        let merged: Vec<u32> = EXACT.iter().map(|&l| l.min(1)).collect();
        assert_eq!(divergent_px(&merged, &EXACT), 4);
    }

    #[test]
    fn split_regions_count_the_smaller_piece() {
        // Region 0 (8 px) split 6 / 2; the 2-pixel piece diverges.
        let mut split = EXACT;
        split[12] = 9;
        split[13] = 9;
        assert_eq!(divergent_px(&split, &EXACT), 2);
        // Symmetric: the exact side being finer costs the same.
        assert_eq!(divergent_px(&EXACT, &split), 2);
    }

    #[test]
    fn moved_boundary_counts_moved_pixels() {
        let mut moved = EXACT;
        moved[2] = 0; // one pixel of region 1 handed to region 0
        assert_eq!(divergent_px(&moved, &EXACT), 1);
    }

    #[test]
    fn wrong_expected_hash_fails_every_unit() {
        let good = label_hash(&EXACT);
        let units = vec![Some(good); 5];
        assert_eq!(failed_units(&units, good, true), 0);
        assert_eq!(failed_units(&units, good ^ 1, true), units.len());
        assert_eq!(failed_units(&units, good, false), units.len());
        let mixed = [Some(good), None, Some(good ^ 2)];
        assert_eq!(failed_units(&mixed, good, true), 2);
    }

    #[test]
    fn hashes_separate_partitions() {
        let mut other = EXACT;
        other[15] = 1;
        assert_ne!(label_hash(&EXACT), label_hash(&other));
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
    }
}
