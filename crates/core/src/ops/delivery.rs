//! Delivery: reassembling images and encoding PNG for clients.
//!
//! §4 of the paper: the DSMS "streams the point data to a specialized
//! stream delivery operator that ships stream results back to clients
//! using the PNG image format". The delivery core is push-fed and owns
//! no stream: [`SectorAssembly`] realizes Definition 4 (an *image* is
//! the same-timestamp subset of a stream) by collecting the points of
//! the [`ChunkOrMarker`] items it is handed into a dense
//! [`RasterImage`] per sector, and [`FrameSink`] encodes each assembled
//! image as PNG bytes, either grayscale (scaled by a display range) or
//! through a [`ColorMap`]. A driver that already delivers items (the
//! DSMS's query evaluator) pushes them in; [`ImageAssembler`] and
//! [`PngSink`] are the same cores behind a pull loop over a stream.

use crate::model::{ChunkOrMarker, GeoStream, Marker, PointRecord, DEFAULT_CHUNK_BUDGET};
use crate::stats::OpStats;
use geostreams_raster::colormap::ColorMap;
use geostreams_raster::png::{self, PngOptions};
use geostreams_raster::{Grid2D, Pixel, RasterImage, Rgb8};

/// Collects each sector of the items pushed into it into a dense raster
/// image. Cells never delivered (restricted away or unmappable) keep
/// `V::default()`.
pub struct SectorAssembly<V> {
    current: Option<PartialImage<V>>,
    stats: OpStats,
}

struct PartialImage<V> {
    grid: Grid2D<V>,
    georef: geostreams_geo::LatticeGeoref,
    timestamp: i64,
    band: u16,
    filled: u64,
}

impl<V: Pixel> Default for SectorAssembly<V> {
    fn default() -> Self {
        SectorAssembly { current: None, stats: OpStats::default() }
    }
}

impl<V: Pixel> SectorAssembly<V> {
    /// Takes the next item of a stream, in stream order: its points
    /// land in the open sector's image, and the `SectorEnd` of a sector
    /// that received any point completes that image.
    pub fn push(&mut self, item: &ChunkOrMarker<V>) -> Option<RasterImage<V>> {
        let (points, marker): (&[PointRecord<V>], _) = match item {
            ChunkOrMarker::Chunk(c) => (&c.points, c.end.as_ref()),
            ChunkOrMarker::Marker(m) => (&[], Some(m)),
        };
        self.stats.points_in += points.len() as u64;
        if let Some(cur) = &mut self.current {
            let (width, height) = (cur.grid.width(), cur.grid.height());
            for p in points {
                if p.cell.col < width && p.cell.row < height {
                    cur.grid.set(p.cell.col, p.cell.row, p.value);
                    cur.filled += 1;
                }
            }
        }
        match marker? {
            Marker::SectorStart(si) => {
                self.current = Some(PartialImage {
                    grid: Grid2D::new(si.lattice.width, si.lattice.height),
                    georef: si.lattice,
                    timestamp: si.timestamp.value(),
                    band: si.band,
                    filled: 0,
                });
                None
            }
            Marker::SectorEnd(_) => {
                let cur = self.current.take().filter(|cur| cur.filled > 0)?;
                self.stats.frames_out += 1;
                Some(RasterImage::new(cur.grid, cur.georef, cur.timestamp, cur.band))
            }
            Marker::FrameStart(_) | Marker::FrameEnd(_) => None,
        }
    }

    /// Assembly statistics.
    pub fn stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// Pulls `input` item by item into `push` until it completes something.
fn pull_until<S: GeoStream, T>(
    input: &mut S,
    mut push: impl FnMut(&ChunkOrMarker<S::V>) -> Option<T>,
) -> Option<T> {
    loop {
        let item = input.next_chunk(DEFAULT_CHUNK_BUDGET)?;
        let done = push(&item);
        item.recycle();
        if done.is_some() {
            return done;
        }
    }
}

/// Collects each sector of a stream into a dense raster image: a
/// [`SectorAssembly`] fed by pulling the stream.
pub struct ImageAssembler<S: GeoStream> {
    input: S,
    assembly: SectorAssembly<S::V>,
}

impl<S: GeoStream> ImageAssembler<S> {
    /// Wraps a stream for image assembly.
    pub fn new(input: S) -> Self {
        ImageAssembler { input, assembly: SectorAssembly::default() }
    }

    /// Pulls until the next complete image (sector) is available.
    pub fn next_image(&mut self) -> Option<RasterImage<S::V>> {
        pull_until(&mut self.input, |item| self.assembly.push(item))
    }

    /// Drains the stream into all remaining images.
    pub fn collect_images(&mut self) -> Vec<RasterImage<S::V>> {
        std::iter::from_fn(|| self.next_image()).collect()
    }

    /// Assembly statistics.
    pub fn stats(&self) -> OpStats {
        self.assembly.stats()
    }

    /// Access to the wrapped stream (for stats collection).
    pub fn inner(&self) -> &S {
        &self.input
    }
}

/// How a [`FrameSink`] renders pixel values.
#[derive(Debug, Clone)]
pub enum Rendering {
    /// 8-bit grayscale, scaling `[lo, hi]` to `0..=255`.
    Gray {
        /// Display range low bound.
        lo: f64,
        /// Display range high bound.
        hi: f64,
    },
    /// RGB through a color map over `[lo, hi]`.
    Mapped {
        /// Display range low bound.
        lo: f64,
        /// Display range high bound.
        hi: f64,
        /// The color ramp.
        map: ColorMap,
    },
}

/// A delivered frame: sector timestamp, band, and encoded PNG bytes.
#[derive(Debug, Clone)]
pub struct DeliveredFrame {
    /// Timestamp of the delivered image.
    pub timestamp: i64,
    /// Band of the delivered image.
    pub band: u16,
    /// Encoded PNG.
    pub png: Vec<u8>,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
}

/// Encodes each sector of the items pushed into it as a PNG.
pub struct FrameSink<V> {
    assembly: SectorAssembly<V>,
    rendering: Rendering,
    options: PngOptions,
}

impl<V: Pixel> FrameSink<V> {
    /// Creates a sink with the given rendering.
    pub fn new(rendering: Rendering, options: PngOptions) -> Self {
        FrameSink { assembly: SectorAssembly::default(), rendering, options }
    }

    /// Takes the next item of a stream, in stream order; the item that
    /// completes a sector's image yields its encoded frame.
    pub fn push(&mut self, item: &ChunkOrMarker<V>) -> Option<DeliveredFrame> {
        let img = self.assembly.push(item)?;
        let png = match &self.rendering {
            Rendering::Gray { lo, hi } => {
                let span = if hi > lo { hi - lo } else { 1.0 };
                let gray: Grid2D<u8> = img
                    .grid
                    .map(|v| (((v.to_f64() - lo) / span).clamp(0.0, 1.0) * 255.0).round() as u8);
                png::encode_gray(&gray, self.options)
            }
            Rendering::Mapped { lo, hi, map } => {
                let rgb: Grid2D<Rgb8> = img.grid.map(|v| map.map_range(v.to_f64(), *lo, *hi));
                png::encode_rgb(&rgb, self.options)
            }
        };
        Some(DeliveredFrame {
            timestamp: img.timestamp,
            band: img.band,
            png,
            width: img.width(),
            height: img.height(),
        })
    }
}

/// Encodes each assembled image of a stream as a PNG: a [`FrameSink`]
/// fed by pulling the stream.
pub struct PngSink<S: GeoStream> {
    input: S,
    sink: FrameSink<S::V>,
    /// Total PNG bytes produced so far.
    pub bytes_delivered: u64,
}

impl<S: GeoStream> PngSink<S> {
    /// Creates a sink with the given rendering; display range defaults to
    /// the stream schema's value range.
    pub fn new(input: S, rendering: Option<Rendering>, options: PngOptions) -> Self {
        let (lo, hi) = input.schema().value_range;
        let rendering = rendering.unwrap_or(Rendering::Gray { lo, hi });
        PngSink { input, sink: FrameSink::new(rendering, options), bytes_delivered: 0 }
    }

    /// The stream feeding this sink (for post-run stats collection).
    pub fn inner(&self) -> &S {
        &self.input
    }

    /// Pulls until the next delivered PNG frame.
    pub fn next_frame(&mut self) -> Option<DeliveredFrame> {
        let frame = pull_until(&mut self.input, |item| self.sink.push(item))?;
        self.bytes_delivered += frame.png.len() as u64;
        Some(frame)
    }
}

/// Three-band true-color composite delivery: assembles one sector from
/// each of three single-band streams (sharing lattice dimensions) and
/// encodes an RGB PNG — the "Web-based graphical interface" view of §4.
pub struct RgbComposite<R: GeoStream, G: GeoStream, B: GeoStream> {
    r: ImageAssembler<R>,
    g: ImageAssembler<G>,
    b: ImageAssembler<B>,
    ranges: [(f64, f64); 3],
    options: PngOptions,
    /// Total PNG bytes produced so far.
    pub bytes_delivered: u64,
}

impl<R: GeoStream, G: GeoStream, B: GeoStream> RgbComposite<R, G, B> {
    /// Creates the composite; display ranges default to each stream's
    /// schema value range.
    pub fn new(r: R, g: G, b: B, options: PngOptions) -> Self {
        let ranges = [r.schema().value_range, g.schema().value_range, b.schema().value_range];
        RgbComposite {
            r: ImageAssembler::new(r),
            g: ImageAssembler::new(g),
            b: ImageAssembler::new(b),
            ranges,
            options,
            bytes_delivered: 0,
        }
    }

    /// Pulls until the next composite frame; `None` when any band ends
    /// or the bands' lattices stop matching.
    pub fn next_frame(&mut self) -> Option<DeliveredFrame> {
        let ir = self.r.next_image()?;
        let ig = self.g.next_image()?;
        let ib = self.b.next_image()?;
        if ir.width() != ig.width()
            || ir.width() != ib.width()
            || ir.height() != ig.height()
            || ir.height() != ib.height()
        {
            return None;
        }
        let to_byte = |v: f64, (lo, hi): (f64, f64)| -> u8 {
            let span = if hi > lo { hi - lo } else { 1.0 };
            (((v - lo) / span).clamp(0.0, 1.0) * 255.0).round() as u8
        };
        let [rr, rg, rb] = self.ranges;
        let rgb: Grid2D<Rgb8> = Grid2D::from_fn(ir.width(), ir.height(), |c, px_r| {
            Rgb8::new(
                to_byte(ir.grid.get(c, px_r).to_f64(), rr),
                to_byte(ig.grid.get(c, px_r).to_f64(), rg),
                to_byte(ib.grid.get(c, px_r).to_f64(), rb),
            )
        });
        let png = png::encode_rgb(&rgb, self.options);
        self.bytes_delivered += png.len() as u64;
        Some(DeliveredFrame {
            timestamp: ir.timestamp,
            band: 0,
            png,
            width: ir.width(),
            height: ir.height(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VecStream;
    use geostreams_geo::{Cell, Crs, LatticeGeoref, Rect};
    use geostreams_raster::png::Decoded;

    fn lattice() -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8)
    }

    #[test]
    fn assembler_rebuilds_the_image() {
        let src: VecStream<f32> =
            VecStream::single_sector("src", lattice(), 7, |c, r| f64::from(c * r));
        let mut asm = ImageAssembler::new(src);
        let img = asm.next_image().unwrap();
        assert_eq!(img.timestamp, 7);
        assert_eq!(img.get(Cell::new(3, 5)), Some(15.0));
        assert!(asm.next_image().is_none());
    }

    #[test]
    fn assembler_emits_one_image_per_sector() {
        let src: VecStream<f32> = VecStream::sectors("src", lattice(), 3, |s, _, _| s as f64);
        let mut asm = ImageAssembler::new(src);
        let images = asm.collect_images();
        assert_eq!(images.len(), 3);
        assert_eq!(images[2].mean(), 2.0);
    }

    #[test]
    fn assembler_skips_empty_sectors() {
        // A value restriction that removes everything leaves no image.
        let src: VecStream<f32> = VecStream::single_sector("src", lattice(), 0, |_, _| 5.0);
        let filtered = crate::ops::ValueRestrict::range(src, 100.0, 200.0);
        let mut asm = ImageAssembler::new(filtered);
        assert!(asm.next_image().is_none());
    }

    #[test]
    fn png_sink_gray_round_trip() {
        let src: VecStream<f32> =
            VecStream::single_sector("src", lattice(), 0, |c, _| f64::from(c) / 7.0)
                .with_value_range(0.0, 1.0);
        let mut sink = PngSink::new(src, None, PngOptions::default());
        let frame = sink.next_frame().unwrap();
        assert_eq!((frame.width, frame.height), (8, 8));
        match geostreams_raster::png::decode(&frame.png).unwrap() {
            Decoded::Gray(g) => {
                assert_eq!(g.get(0, 0), 0);
                assert_eq!(g.get(7, 0), 255);
            }
            _ => panic!("expected gray"),
        }
        assert!(sink.bytes_delivered > 0);
    }

    #[test]
    fn rgb_composite_combines_three_bands() {
        let mk = |v: f64| -> VecStream<f32> {
            VecStream::single_sector("band", lattice(), 0, move |c, _| v * f64::from(c) / 7.0)
                .with_value_range(0.0, 1.0)
        };
        let mut comp = RgbComposite::new(mk(1.0), mk(0.5), mk(0.0), PngOptions::default());
        let frame = comp.next_frame().unwrap();
        match geostreams_raster::png::decode(&frame.png).unwrap() {
            Decoded::Rgb(g) => {
                let px = g.get(7, 0);
                assert_eq!(px.r, 255);
                assert_eq!(px.g, 128);
                assert_eq!(px.b, 0);
            }
            _ => panic!("expected rgb"),
        }
        assert!(comp.next_frame().is_none(), "single sector exhausted");
        assert!(comp.bytes_delivered > 0);
    }

    #[test]
    fn rgb_composite_rejects_mismatched_lattices() {
        let a: VecStream<f32> = VecStream::single_sector("a", lattice(), 0, |_, _| 0.5);
        let small = geostreams_geo::LatticeGeoref::north_up(
            Crs::LatLon,
            geostreams_geo::Rect::new(0.0, 0.0, 8.0, 8.0),
            4,
            4,
        );
        let b: VecStream<f32> = VecStream::single_sector("b", small, 0, |_, _| 0.5);
        let c: VecStream<f32> = VecStream::single_sector("c", lattice(), 0, |_, _| 0.5);
        let mut comp = RgbComposite::new(a, b, c, PngOptions::default());
        assert!(comp.next_frame().is_none());
    }

    #[test]
    fn png_sink_colormapped_ndvi() {
        let src: VecStream<f32> = VecStream::single_sector("ndvi", lattice(), 0, |c, _| {
            f64::from(c) / 7.0 * 2.0 - 1.0 // NDVI in [-1, 1]
        });
        let rendering = Rendering::Mapped { lo: -1.0, hi: 1.0, map: ColorMap::ndvi() };
        let mut sink = PngSink::new(src, Some(rendering), PngOptions::default());
        let frame = sink.next_frame().unwrap();
        match geostreams_raster::png::decode(&frame.png).unwrap() {
            Decoded::Rgb(g) => {
                // High NDVI column is green-dominant.
                let lush = g.get(7, 0);
                assert!(lush.g > lush.r && lush.g > lush.b);
            }
            _ => panic!("expected rgb"),
        }
    }
}
