//! The three workloads: seeded inputs (PGM bytes), configs, and the
//! machine / working-set record written next to every result.

use rg_core::{Config, Connectivity, TieBreak};
use rg_imaging::pgm::{self, Flavor};
use rg_imaging::{synth, Image};

/// Workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed reserved for re-checking a gain claim on inputs its author did not
/// tune on.
pub const HOLDOUT_SEED: u64 = 7919;

/// Images per `stream-shapes-512` unit.
pub const STREAM_IMAGES: usize = 40;
/// Tile grid of `tiled-noise-2048` (and of the tiles layer everywhere).
pub const TILE_GRID: (usize, usize) = (4, 4);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 2048² noise image through a warm `HostPipeline`.
    WholeNoise,
    /// A stream of 512² scenes through `run_batch`.
    StreamShapes,
    /// One 2048² noise image through a warm 4x4 `TiledRunner`.
    TiledNoise,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WholeNoise,
        Workload::StreamShapes,
        Workload::TiledNoise,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WholeNoise => "whole-noise-2048",
            Workload::StreamShapes => "stream-shapes-512",
            Workload::TiledNoise => "tiled-noise-2048",
        }
    }

    /// Workers the workload's own path uses: the pooled paths run at
    /// `nproc`, the whole-image pipeline on one thread.
    pub fn jobs(self) -> usize {
        match self {
            Workload::WholeNoise => 1,
            Workload::StreamShapes | Workload::TiledNoise => nproc(),
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The segmentation config for workload seed `seed`.
    pub fn config(self, seed: u64) -> Config {
        let (t, tie) = match self {
            Workload::WholeNoise => (10, TieBreak::SmallestId),
            Workload::StreamShapes => (
                12,
                TieBreak::Random {
                    seed: substream(seed, 3),
                },
            ),
            Workload::TiledNoise => (
                10,
                TieBreak::Random {
                    seed: substream(seed, 5),
                },
            ),
        };
        Config::with_threshold(t)
            .tie_break(tie)
            .connectivity(Connectivity::Four)
    }

    /// The generated input images, in unit order.
    pub fn images(self, seed: u64) -> Vec<Image<u8>> {
        match self {
            Workload::WholeNoise => vec![synth::uniform_noise(
                2048,
                2048,
                120,
                135,
                substream(seed, 1),
            )],
            Workload::TiledNoise => vec![synth::uniform_noise(
                2048,
                2048,
                120,
                135,
                substream(seed, 4),
            )],
            Workload::StreamShapes => (0..STREAM_IMAGES)
                .map(|i| stream_image(substream(seed, 100 + i as u64), i))
                .collect(),
        }
    }
}

/// Image `i` of the shapes stream: the paper's scene families in turn,
/// plus seeded additive noise in `0..=6`.
fn stream_image(seed: u64, i: usize) -> Image<u8> {
    const N: usize = 512;
    let scene = match i % 5 {
        0 => synth::rect_collection(N),
        1 => synth::circle_collection(N),
        2 => synth::nested_rects(N),
        3 => synth::tool(N),
        _ => synth::random_rects(N, N, 24, substream(seed, 1)),
    };
    let noise = synth::uniform_noise(N, N, 0, 6, substream(seed, 2));
    Image::from_fn(N, N, |x, y| scene.get(x, y).saturating_add(noise.get(x, y)))
}

/// Encodes images as binary PGM byte buffers, the form the program reads.
pub fn encode(images: &[Image<u8>]) -> Vec<Vec<u8>> {
    images
        .iter()
        .map(|img| {
            let mut bytes = Vec::with_capacity(img.len() + 32);
            pgm::write(img, Some(255), Flavor::Binary, &mut bytes).expect("in-memory PGM write");
            bytes
        })
        .collect()
}

/// Decodes one PGM buffer (the program's input path).
pub fn decode(bytes: &[u8]) -> Image<u8> {
    pgm::read(bytes).expect("generated PGM decodes")
}

/// Independent seed stream `k` of workload seed `seed` (splitmix64).
pub fn substream(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worker count of the pooled paths: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the largest CPU cache, from sysfs (`None` when the
/// machine does not expose it).
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let s = std::fs::read_to_string(e.ok()?.path().join("size")).ok()?;
        let s = s.trim();
        let (num, mul) = match s.strip_suffix('K') {
            Some(n) => (n, 1u64 << 10),
            None => match s.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (s, 1),
            },
        };
        Some(num.parse::<u64>().ok()? * mul)
    })
    .max()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes the host path touches per image, computed from the image's size
/// and its split/graph counts (not measured).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkingSet {
    /// Pixels in the image.
    pub pixels: u64,
    /// Split squares (initial RAG vertices).
    pub squares: u64,
    /// Undirected RAG edges before the criterion filter.
    pub edges: u64,
}

impl WorkingSet {
    /// Pixel-indexed bytes: the u8 image, the u32 pixel→square map and the
    /// u32 output labels.
    pub fn pixel_bytes(&self) -> u64 {
        self.pixels * (1 + 4 + 4)
    }

    /// Per-vertex bytes: square geometry (12), region stats (24), id (8),
    /// packed hot extrema (16), DSU parent and label tables (3 × 4).
    pub fn vertex_bytes(&self) -> u64 {
        self.squares * (12 + 24 + 8 + 16 + 12)
    }

    /// Per-edge bytes: the pair list and its criterion-filtered copy
    /// (2 × 8) plus two directed CSR slots (2 × 4).
    pub fn edge_bytes(&self) -> u64 {
        self.edges * (8 + 8 + 8)
    }

    /// Total computed working set.
    pub fn total_bytes(&self) -> u64 {
        self.pixel_bytes() + self.vertex_bytes() + self.edge_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = Workload::StreamShapes.images(3);
        let b = Workload::StreamShapes.images(3);
        let c = Workload::StreamShapes.images(4);
        assert_eq!(a.len(), STREAM_IMAGES);
        assert!(a.iter().zip(&b).all(|(x, y)| x.pixels() == y.pixels()));
        assert!(a.iter().zip(&c).any(|(x, y)| x.pixels() != y.pixels()));
        assert_ne!(substream(1, 1), substream(1, 4));
    }

    #[test]
    fn pgm_round_trips() {
        let imgs = vec![synth::uniform_noise(37, 11, 0, 255, 9)];
        let bytes = encode(&imgs);
        assert_eq!(decode(&bytes[0]).pixels(), imgs[0].pixels());
    }
}
