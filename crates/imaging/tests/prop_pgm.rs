//! Property tests for the PGM codec: lossless round-trips for arbitrary
//! images in both flavours, and agreement between flavours.

use proptest::prelude::*;
use rg_imaging::{pgm, Image};

prop_compose! {
    fn arb_image()(
        w in 1usize..40,
        h in 1usize..40,
    )(
        data in proptest::collection::vec(0u8..=255, w * h),
        w in Just(w),
        h in Just(h),
    ) -> Image<u8> {
        Image::from_vec(w, h, data)
    }
}

proptest! {
    #[test]
    fn binary_roundtrip(img in arb_image()) {
        let mut buf = Vec::new();
        pgm::write(&img, None, pgm::Flavor::Binary, &mut buf).unwrap();
        let back: Image<u8> = pgm::read(&buf[..]).unwrap();
        prop_assert_eq!(back, img);
    }

    #[test]
    fn ascii_roundtrip(img in arb_image()) {
        let mut buf = Vec::new();
        pgm::write(&img, None, pgm::Flavor::Ascii, &mut buf).unwrap();
        let back: Image<u8> = pgm::read(&buf[..]).unwrap();
        prop_assert_eq!(back, img);
    }

    #[test]
    fn wide_binary_roundtrip(
        w in 1usize..20,
        h in 1usize..20,
        base in 0u32..60_000,
    ) {
        let img: Image<u16> = Image::from_fn(w, h, |x, y| {
            ((base + (x * 131 + y * 57) as u32) % 65_536) as u16
        });
        let mut buf = Vec::new();
        pgm::write(&img, Some(65_535), pgm::Flavor::Binary, &mut buf).unwrap();
        let back: Image<u16> = pgm::read(&buf[..]).unwrap();
        prop_assert_eq!(back, img);
    }

    #[test]
    fn flavours_agree(img in arb_image()) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        pgm::write(&img, Some(255), pgm::Flavor::Ascii, &mut a).unwrap();
        pgm::write(&img, Some(255), pgm::Flavor::Binary, &mut b).unwrap();
        let ia: Image<u8> = pgm::read(&a[..]).unwrap();
        let ib: Image<u8> = pgm::read(&b[..]).unwrap();
        prop_assert_eq!(ia, ib);
    }

    #[test]
    fn crop_within_bounds_matches_pixels(
        img in arb_image(),
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
        fw in 0.01f64..1.0,
        fh in 0.01f64..1.0,
    ) {
        let x0 = ((img.width() - 1) as f64 * fx) as usize;
        let y0 = ((img.height() - 1) as f64 * fy) as usize;
        let w = 1 + ((img.width() - x0 - 1) as f64 * fw) as usize;
        let h = 1 + ((img.height() - y0 - 1) as f64 * fh) as usize;
        let c = img.crop(x0, y0, w, h);
        for y in 0..h {
            for x in 0..w {
                prop_assert_eq!(c.get(x, y), img.get(x0 + x, y0 + y));
            }
        }
    }
}

proptest! {
    /// Failure injection: the decoder must reject arbitrary garbage with an
    /// error, never a panic.
    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = pgm::read::<u8, _>(&bytes[..]);
    }

    /// Truncations of valid files must error cleanly, never panic.
    #[test]
    fn decoder_never_panics_on_truncation(img in arb_image(), cut in 0.0f64..1.0) {
        let mut buf = Vec::new();
        pgm::write(&img, None, pgm::Flavor::Binary, &mut buf).unwrap();
        let keep = (buf.len() as f64 * cut) as usize;
        let _ = pgm::read::<u8, _>(&buf[..keep]);
    }

    /// Header-corrupted files (bit flips in the first 16 bytes) must error
    /// cleanly or decode to *some* image, never panic.
    #[test]
    fn decoder_never_panics_on_header_corruption(
        img in arb_image(),
        pos in 0usize..16,
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        pgm::write(&img, None, pgm::Flavor::Binary, &mut buf).unwrap();
        if pos < buf.len() {
            buf[pos] ^= 1 << bit;
        }
        let _ = pgm::read::<u8, _>(&buf[..]);
    }

    /// Header fuzz: any dimensions up to `u32::MAX` followed by fewer
    /// samples than they promise must be rejected with an error, never a
    /// panic or an allocation abort sized from the header.
    #[test]
    fn decoder_rejects_short_bodies_for_any_header(
        w in prop_oneof![1u32..64, 1u32..=u32::MAX],
        h in prop_oneof![1u32..64, 1u32..=u32::MAX],
        wide in proptest::bool::ANY,
        ascii in proptest::bool::ANY,
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let (maxval, bytes_per_sample) = if wide { (65_535, 2) } else { (255, 1) };
        let samples = u128::from(w) * u128::from(h);
        let magic = if ascii { "P2" } else { "P5" };
        let mut buf = format!("{magic}\n{w} {h}\n{maxval}\n").into_bytes();
        if ascii {
            let keep = body.len().min((samples - 1).min(64) as usize);
            for b in &body[..keep] {
                buf.extend_from_slice(format!("{b} ").as_bytes());
            }
        } else {
            let keep = body.len().min((samples * bytes_per_sample - 1).min(64) as usize);
            buf.extend_from_slice(&body[..keep]);
        }
        prop_assert!(pgm::read::<u16, _>(&buf[..]).is_err());
    }
}
