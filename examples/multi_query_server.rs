//! Multi-user DSMS: many continuous queries against one GeoStream.
//!
//! §4: "Multiple users can connect to the DSMS server and formulate
//! queries over the GOES data streams … multiple queries against a
//! single GeoStream are optimized using a dynamic cascade tree
//! structure." This example subscribes many clients with random regions
//! of interest and routes one satellite pass through the shared
//! front end twice — once with the naive per-query scan, once with the
//! cascade tree — and also demonstrates the per-query-pipeline mode with
//! the HTTP-style protocol.
//!
//! Run with `cargo run --release --example multi_query_server`.

use geostreams_core::query::cascade::{CascadeTree, NaiveRegionIndex, RegionIndex};
use geostreams_dsms::protocol::ClientRequest;
use geostreams_dsms::{
    run_supervised, Dsms, FanoutPolicy, HttpServer, MultiQueryFrontEnd, OutputFormat, RuntimeConfig,
};
use geostreams_geo::Rect;
use geostreams_satsim::goes_like;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic LCG for reproducible client regions.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f64) / (1u64 << 31) as f64
    }
}

fn client_regions(n: usize, world: Rect, seed: u64) -> Vec<Rect> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            let w = world.width() * (0.02 + 0.1 * rng.next_f64());
            let h = world.height() * (0.02 + 0.1 * rng.next_f64());
            let x = world.x_min + rng.next_f64() * (world.width() - w);
            let y = world.y_min + rng.next_f64() * (world.height() - h);
            Rect::new(x, y, x + w, y + h)
        })
        .collect()
}

fn route_with<I: RegionIndex>(
    index: I,
    regions: &[Rect],
    scanner: &geostreams_satsim::Scanner,
) -> (std::time::Duration, u64, u64) {
    let mut fe = MultiQueryFrontEnd::new(index);
    for (i, r) in regions.iter().enumerate() {
        fe.subscribe(i as u32, *r);
    }
    let mut stream = scanner.band_stream(0, 1);
    let mut images = 0u64;
    let start = Instant::now();
    fe.run(&mut stream, |_, _| images += 1);
    (start.elapsed(), fe.stats.deliveries, images)
}

fn main() {
    let scanner = goes_like(512, 256, 7);
    let world = scanner.instrument.base_lattice.world_bbox();

    println!("== shared front end: cascade tree vs naive scan ==");
    println!(
        "{:>9} {:>14} {:>14} {:>10} {:>12}",
        "clients", "naive", "cascade", "speedup", "deliveries"
    );
    for &n in &[4usize, 16, 64, 256] {
        let regions = client_regions(n, world, 99);
        let (t_naive, d1, _) = route_with(NaiveRegionIndex::new(), &regions, &scanner);
        let (t_casc, d2, _) = route_with(CascadeTree::new(world, 10), &regions, &scanner);
        assert_eq!(d1, d2, "both indexes must deliver identically");
        println!(
            "{:>9} {:>13.1?} {:>13.1?} {:>9.2}x {:>12}",
            n,
            t_naive,
            t_casc,
            t_naive.as_secs_f64() / t_casc.as_secs_f64(),
            d1
        );
    }

    println!("\n== per-query pipelines over the HTTP protocol ==");
    let server = Arc::new(Dsms::over_scanner(&goes_like(128, 64, 7), 1));
    let requests = [
        "GET /query?q=goes-sim.b4-ir&format=thermal HTTP/1.1",
        "GET /query?q=restrict_space(goes-sim.b1-vis,+bbox(-100,30,-90,40),+\"latlon\")&format=png HTTP/1.1",
        "GET /query?q=ndvi(goes-sim.b2-nir,+downsample(goes-sim.b1-vis,+4))&format=ndvi HTTP/1.1",
        "GET /query?q=borked((( HTTP/1.1",
    ];
    for req in requests {
        let response = server.handle_http(req);
        let status = String::from_utf8_lossy(&response[..16.min(response.len())]).to_string();
        println!("{:<100} -> {}", &req[..req.len().min(100)], status.trim());
    }
    println!("\nserver metrics: {}", server.metrics.summary());

    println!("\n== continuous shared-ingest mode ==");
    let scanner = goes_like(128, 64, 7);
    let requests = vec![
        ClientRequest {
            query: "restrict_value(goes-sim.b4-ir, 0.5, 1.0)".into(),
            format: OutputFormat::Stats,
            sectors: 0,
        },
        ClientRequest {
            query: "focal(goes-sim.b4-ir, \"mean\", 3)".into(),
            format: OutputFormat::Stats,
            sectors: 0,
        },
        ClientRequest {
            query: "ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4))".into(),
            format: OutputFormat::PngNdvi,
            sectors: 0,
        },
    ];
    let start = Instant::now();
    let lossless = RuntimeConfig { fanout: FanoutPolicy::Blocking, ..RuntimeConfig::default() };
    let (results, stats) =
        run_supervised(&scanner, 2, &requests, &lossless).expect("continuous run");
    println!(
        "3 queries over shared ingest: {:?}; bands ingested once each: {:?}",
        start.elapsed(),
        stats.elements_per_band
    );
    for (req, result) in requests.iter().zip(&results) {
        match result {
            Ok(r) => {
                println!("  {:<60} -> {} frames / {} points", req.query, r.frames.len(), r.points)
            }
            Err(e) => println!("  {:<60} -> error {e}", req.query),
        }
    }

    println!("\n== TCP front end ==");
    let dsms = Arc::new(Dsms::over_scanner(&goes_like(64, 32, 7), 1));
    let http = HttpServer::spawn(dsms, "127.0.0.1:0").expect("bind");
    let addr = http.addr();
    println!("listening on http://{addr}");
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    use std::io::{Read, Write};
    write!(conn, "GET /query?q=goes-sim.b1-vis&format=png&sectors=1 HTTP/1.1\r\n\r\n")
        .expect("send");
    conn.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut resp = Vec::new();
    conn.read_to_end(&mut resp).expect("read");
    println!(
        "client received {} bytes: {}",
        resp.len(),
        String::from_utf8_lossy(&resp[..16.min(resp.len())]).trim()
    );
    http.stop();
}
