//! The shared multi-query spatial-restriction front end.
//!
//! §4: "Multiple queries against a single GeoStream are optimized using
//! a dynamic cascade tree structure, which acts as a single spatial
//! restriction operator and efficiently streams only the point data of
//! interest to current continuous queries to subsequent operators."
//!
//! [`MultiQueryFrontEnd`] consumes a GeoStream **once** and routes every
//! point through a pluggable [`RegionIndex`] — the
//! [`CascadeTree`](geostreams_core::query::CascadeTree) or the naive
//! scan baseline — to all subscribed clients, assembling a per-client
//! image per sector. Experiment E5 sweeps the number of registered
//! clients over both index implementations.

use geostreams_core::model::{ChunkInput, Element, GeoStream};
use geostreams_core::query::cascade::{QueryId, RegionIndex};
use geostreams_geo::{LatticeGeoref, Rect};
use geostreams_raster::{Grid2D, RasterImage};
use std::collections::HashMap;

/// Routing statistics of one front-end pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrontEndStats {
    /// Points pulled from the source.
    pub points_in: u64,
    /// Point-to-client deliveries (one point may reach many clients).
    pub deliveries: u64,
    /// Sectors completed.
    pub sectors: u64,
    /// Images emitted to clients.
    pub images_out: u64,
}

/// Per-client assembly state within the current sector.
struct ClientState {
    region: Rect,
    /// Dense grid for the client's footprint, allocated per sector.
    grid: Option<(Grid2D<f32>, geostreams_geo::CellBox)>,
    filled: u64,
}

/// A single-pass multi-query router over one GeoStream.
pub struct MultiQueryFrontEnd<I: RegionIndex> {
    index: I,
    clients: HashMap<QueryId, ClientState>,
    lattice: Option<LatticeGeoref>,
    timestamp: i64,
    band: u16,
    /// Routing statistics.
    pub stats: FrontEndStats,
    /// Scratch buffer reused per point.
    hits: Vec<QueryId>,
}

impl<I: RegionIndex> MultiQueryFrontEnd<I> {
    /// Creates a front end over a region index.
    pub fn new(index: I) -> Self {
        MultiQueryFrontEnd {
            index,
            clients: HashMap::new(),
            lattice: None,
            timestamp: 0,
            band: 0,
            stats: FrontEndStats::default(),
            hits: Vec::with_capacity(16),
        }
    }

    /// Registers a client with a rectangular region of interest (stream
    /// CRS coordinates).
    pub fn subscribe(&mut self, id: QueryId, region: Rect) {
        self.index.insert(id, region);
        self.clients.insert(id, ClientState { region, grid: None, filled: 0 });
    }

    /// Removes a client.
    pub fn unsubscribe(&mut self, id: QueryId) {
        self.index.remove(id);
        self.clients.remove(&id);
    }

    /// Number of subscribed clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Processes a whole stream; `deliver` receives `(client, image)`
    /// for every client image completed at each sector end.
    pub fn run<S: GeoStream<V = f32>>(
        &mut self,
        stream: &mut S,
        mut deliver: impl FnMut(QueryId, RasterImage<f32>),
    ) {
        let mut input = ChunkInput::new(stream);
        while let Some(el) = input.pull() {
            match el {
                Element::SectorStart(si) => {
                    self.lattice = Some(si.lattice);
                    self.timestamp = si.timestamp.value();
                    self.band = si.band;
                    // Allocate per-client footprint grids lazily.
                    for state in self.clients.values_mut() {
                        state.grid = None;
                        state.filled = 0;
                    }
                }
                Element::Point(p) => {
                    self.stats.points_in += 1;
                    let Some(lattice) = self.lattice else { continue };
                    let world = lattice.cell_to_world(p.cell);
                    self.hits.clear();
                    self.index.query_point(world, &mut self.hits);
                    // Move hits out to appease the borrow checker.
                    let hits = std::mem::take(&mut self.hits);
                    for &id in &hits {
                        if let Some(state) = self.clients.get_mut(&id) {
                            let (grid, footprint) = match &mut state.grid {
                                Some(g) => g,
                                None => {
                                    let Some(fp) = lattice.footprint(&state.region) else {
                                        continue;
                                    };
                                    state.grid.insert((Grid2D::new(fp.width(), fp.height()), fp))
                                }
                            };
                            if footprint.contains(p.cell) {
                                grid.set(
                                    p.cell.col - footprint.col_min,
                                    p.cell.row - footprint.row_min,
                                    p.value,
                                );
                                state.filled += 1;
                                self.stats.deliveries += 1;
                            }
                        }
                    }
                    self.hits = hits;
                }
                Element::SectorEnd(_) => {
                    self.stats.sectors += 1;
                    let Some(lattice) = self.lattice else { continue };
                    let ids: Vec<QueryId> = self.clients.keys().copied().collect();
                    for id in ids {
                        let Some(state) = self.clients.get_mut(&id) else { continue };
                        if state.filled == 0 {
                            continue;
                        }
                        if let Some((grid, fp)) = state.grid.take() {
                            // Georeference of the client's sub-window.
                            let origin = lattice
                                .cell_to_world(geostreams_geo::Cell::new(fp.col_min, fp.row_min));
                            let georef = LatticeGeoref::new(
                                lattice.crs,
                                origin,
                                lattice.step_x,
                                lattice.step_y,
                                fp.width(),
                                fp.height(),
                            );
                            self.stats.images_out += 1;
                            deliver(id, RasterImage::new(grid, georef, self.timestamp, self.band));
                        }
                        state.filled = 0;
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostreams_core::model::VecStream;
    use geostreams_core::query::cascade::{CascadeTree, NaiveRegionIndex};
    use geostreams_geo::{Crs, Rect};

    fn lattice() -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 16.0, 16.0), 16, 16)
    }

    fn source() -> VecStream<f32> {
        VecStream::sectors("src", lattice(), 2, |s, c, r| f64::from(c + r) + s as f64)
    }

    #[test]
    fn routes_points_to_matching_clients() {
        let mut fe = MultiQueryFrontEnd::new(NaiveRegionIndex::new());
        fe.subscribe(1, Rect::new(0.0, 12.0, 4.0, 16.0)); // NW corner
        fe.subscribe(2, Rect::new(0.0, 0.0, 16.0, 16.0)); // everything
        let mut delivered: Vec<(u32, u32)> = Vec::new();
        let mut src = source();
        fe.run(&mut src, |id, img| delivered.push((id, img.width() * img.height())));
        // Both clients get one image per sector.
        assert_eq!(delivered.len(), 4);
        let c1: Vec<_> = delivered.iter().filter(|(id, _)| *id == 1).collect();
        let c2: Vec<_> = delivered.iter().filter(|(id, _)| *id == 2).collect();
        assert_eq!(c1.len(), 2);
        assert_eq!(c2.len(), 2);
        assert!(c1[0].1 < c2[0].1, "client 1's window is smaller");
        assert_eq!(c2[0].1, 256);
    }

    #[test]
    fn cascade_and_naive_deliver_identically() {
        let run = |naive: bool| {
            let mut delivered: Vec<(u32, i64, f32)> = Vec::new();
            let regions = [
                Rect::new(1.0, 1.0, 6.0, 6.0),
                Rect::new(4.0, 4.0, 12.0, 12.0),
                Rect::new(10.0, 0.0, 16.0, 5.0),
            ];
            let mut src = source();
            let collect = |id: u32, img: RasterImage<f32>, out: &mut Vec<(u32, i64, f32)>| {
                out.push((id, img.timestamp, img.mean() as f32));
            };
            if naive {
                let mut fe = MultiQueryFrontEnd::new(NaiveRegionIndex::new());
                for (i, r) in regions.iter().enumerate() {
                    fe.subscribe(i as u32, *r);
                }
                fe.run(&mut src, |id, img| collect(id, img, &mut delivered));
            } else {
                let mut fe =
                    MultiQueryFrontEnd::new(CascadeTree::new(Rect::new(0.0, 0.0, 16.0, 16.0), 8));
                for (i, r) in regions.iter().enumerate() {
                    fe.subscribe(i as u32, *r);
                }
                fe.run(&mut src, |id, img| collect(id, img, &mut delivered));
            }
            delivered.sort_by_key(|a| (a.0, a.1));
            delivered
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut fe = MultiQueryFrontEnd::new(NaiveRegionIndex::new());
        fe.subscribe(1, Rect::new(0.0, 0.0, 16.0, 16.0));
        fe.unsubscribe(1);
        assert_eq!(fe.client_count(), 0);
        let mut n = 0;
        let mut src = source();
        fe.run(&mut src, |_, _| n += 1);
        assert_eq!(n, 0);
        assert_eq!(fe.stats.deliveries, 0);
    }

    #[test]
    fn stats_count_deliveries() {
        let mut fe = MultiQueryFrontEnd::new(NaiveRegionIndex::new());
        fe.subscribe(1, Rect::new(0.0, 0.0, 16.0, 16.0));
        fe.subscribe(2, Rect::new(0.0, 0.0, 16.0, 16.0));
        let mut src = source();
        fe.run(&mut src, |_, _| {});
        assert_eq!(fe.stats.points_in, 512);
        assert_eq!(fe.stats.deliveries, 1024, "each point reaches both clients");
        assert_eq!(fe.stats.sectors, 2);
    }
}
