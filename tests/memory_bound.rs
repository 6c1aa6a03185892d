//! The analyzer's buffer bound against the heap. A counting global
//! allocator keeps, per thread, the live bytes and their peak; every
//! single-operator plan runs over a 1024 × 512 GOES-like visible band,
//! four sectors, through `Planner::build` and `run_to_end`, and the heap
//! it grows during the run must stay within the plan's bound plus the
//! run buffers no structure holds from one pull to the next
//! ([`RUN_BUFFERS`]).

use geostreams::core::exec::run_to_end;
use geostreams::core::model::GeoStream;
use geostreams::core::query::{parse_query, Catalog, Plan, Planner};
use geostreams::satsim::goes_like;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread allocates and frees. A block freed on
/// another thread than its own lowers that thread's figure, so the
/// figures are signed; the test reads only its own thread's.
struct Counting;

thread_local! {
    // `const` cells need no lazy initialization and have no destructor,
    // so the allocator never allocates to count.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with` fails only while the thread tears its locals down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The heap `f` grows on this thread at its peak, over the live bytes
/// before it.
fn heap_growth<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (out, (PEAK.with(Cell::get) - before).max(0) as u64)
}

/// What a plan allocates besides its operators' structures, none of it
/// held from one pull to the next: the source's run of
/// `DEFAULT_CHUNK_BUDGET` 12-byte points (12 KiB) with the row it
/// synthesizes, the operator's output run, and the scratch an operator
/// computes one run in — an `f64` per point for `scale` (8 KiB), the
/// largest, at 21.2 KiB past its bound. A re-projected row's columns,
/// coordinates and projected points are scratch its mapping holds and
/// counts in the bound.
const RUN_BUFFERS: u64 = 24 * 1024;

const SOURCE: &str = "goes-sim.b1-vis";

#[test]
fn heap_peak_stays_within_the_bound() {
    let scanner = goes_like(1024, 512, 2006);
    let mut cat = Catalog::new();
    let band = scanner.clone();
    cat.register(scanner.band_stream(0, 4).schema().clone(), move || {
        Box::new(band.band_stream(0, 4))
    });
    let lattice = scanner.sector_lattice(0, 0);
    let planner = Planner::new(&cat);
    // Every single-operator plan of `tests/plan_analysis.rs`, over the
    // visible band; the re-projection targets lat/lon, where the band
    // lies.
    let region = lattice.world_bbox();
    let (x0, y0, x1, y1) = (region.x_min, region.y_min, region.x_max, region.y_max);
    let bbox = format!("bbox({x0}, {y0}, {}, {}), \"{}\"", x0 + (x1 - x0) / 4.0, y1, lattice.crs);
    let queries = [
        SOURCE.to_string(),
        format!("restrict_space({SOURCE}, {bbox})"),
        format!("restrict_time({SOURCE}, interval(0, 5))"),
        format!("restrict_value({SOURCE}, 0, 1)"),
        format!("scale({SOURCE}, 2, 1)"),
        format!("stretch({SOURCE}, \"linear\", \"frame\")"),
        format!("stretch({SOURCE}, \"linear\", \"image\")"),
        format!("focal({SOURCE}, \"mean\", 5)"),
        format!("orient({SOURCE}, \"rot90\")"),
        format!("magnify({SOURCE}, 2)"),
        format!("downsample({SOURCE}, 4)"),
        format!("reproject({SOURCE}, \"latlon\", \"bilinear\")"),
        format!("add({SOURCE}, {SOURCE})"),
        format!("ndvi({SOURCE}, {SOURCE})"),
        format!("shed({SOURCE}, \"points\", 2)"),
        format!("delay({SOURCE}, 2)"),
        format!("agg_time({SOURCE}, \"mean\", 4)"),
        format!("agg_space({SOURCE}, \"mean\", bbox(-100, 30, -90, 40))"),
    ];
    let mut over = Vec::new();
    for q in &queries {
        let plan = Plan::analyze(parse_query(q).unwrap(), &cat);
        assert!(!plan.report().has_errors(), "{q}: {:?}", plan.report().diagnostics);
        let bound = plan.report().peak_buffer_bytes.expect("a bounded plan");
        let mut stream = planner.build(&plan).unwrap();
        let (run, heap) = heap_growth(|| run_to_end(&mut stream));
        assert!(run.sectors > 0, "{q}");
        let held = run.peak_buffered_bytes();
        eprintln!("{q}: bound {bound}, held {held}, heap {heap}");
        if heap > bound + RUN_BUFFERS {
            over.push(format!("{q}: heap peak {heap} B over bound {bound} B + {RUN_BUFFERS} B"));
        }
        drop(stream);
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}
