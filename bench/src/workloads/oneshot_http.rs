//! `oneshot_http`: the interactive path. `HttpServer` on `127.0.0.1:0`
//! over a `goes_like(256, 128)` scanner, one client, one request at a
//! time over a fresh connection: parse → optimize → analyze → admit →
//! scalar `run_query` → PNG → socket. A round is the same 120 requests
//! — twelve query shapes over small seeded regions, nine `/query` and
//! one `/explain` each — in a seeded order; rounds repeat until the
//! time is up. `format=stats` is left out: the one-shot path answers it
//! `204`, which would count as a failure.

use super::ops_kernels::catalog_of;
use super::streams::reencode_seconds;
use crate::harness::{Env, LayerValues, Measured, ProbeInputs, Section, Workload};
use crate::inputs::{bbox_text, materialize, rect_of_cells, seeded_cells, Materialized, Rng};
use crate::manifest::number;
use crate::stats::median;
use crate::trace::{span, SpanRecord, Tracer};
use geostreams_core::exec;
use geostreams_core::obs::PipelineObs;
use geostreams_core::query::{analyze, optimize, parse_query, Planner};
use geostreams_dsms::{Dsms, HttpServer};
use geostreams_geo::LatticeGeoref;
use geostreams_raster::png::{self, Decoded};
use geostreams_satsim::{goes_like, Scanner};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WIDTH: u32 = 256;
pub const HEIGHT: u32 = 128;
const QUERIES_PER_SHAPE: usize = 9;

/// One kind of request: a query over a region of `cells` lattice cells
/// of `band`, placed by the seed.
pub struct Shape {
    pub query: String,
    pub format: &'static str,
    /// Points a `format=json` answer must report, where the lattice
    /// fixes that.
    pub points: Option<u64>,
}

#[derive(Clone)]
pub struct Request {
    pub target: String,
    pub query: String,
    pub format: &'static str,
    pub points: Option<u64>,
    pub explain: bool,
}

/// The twelve shapes with regions drawn from `rng`.
pub fn shapes(scanner: &Scanner, rng: &mut Rng) -> Vec<Shape> {
    let vis = scanner.instrument.band_lattice(0);
    let ir = scanner.instrument.band_lattice(3);
    let mut region = |band: &str, lattice: &LatticeGeoref, div: u32| {
        let cells = seeded_cells(rng, lattice, lattice.width / div, lattice.height / div, 1.0);
        (
            format!(
                "restrict_space(goes-sim.{band}, {}, \"geos:-75\")",
                bbox_text(&rect_of_cells(lattice, cells))
            ),
            cells.len(),
        )
    };
    let shape = |query: String, format, points| Shape { query, format, points };
    let (r, _) = region("b1-vis", &vis, 4);
    let mut out = vec![shape(r, "png", None)];
    let (r, n2) = region("b1-vis", &vis, 3);
    out.push(shape(r, "json", Some(n2)));
    let (r, _) = region("b1-vis", &vis, 4);
    out.push(shape(format!("scale({r}, 2, 0)"), "png", None));
    out.push(shape("ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4))".into(), "ndvi", None));
    let (r, _) = region("b4-ir", &ir, 2);
    out.push(shape(format!("stretch({r}, \"linear\", \"frame\")"), "thermal", None));
    let (r, _) = region("b3-wv", &ir, 2);
    out.push(shape(format!("focal({r}, \"mean\", 3)"), "png", None));
    let (r, _) = region("b5-ir", &ir, 2);
    out.push(shape(format!("restrict_value({r}, 0.2, 0.8)"), "json", None));
    let (r, _) = region("b4-ir", &ir, 2);
    out.push(shape(format!("reproject({r}, \"latlon\", \"bilinear\")"), "png", None));
    let (r, _) = region("b1-vis", &vis, 4);
    out.push(shape(format!("gamma({r}, 2.2)"), "png", None));
    let (r, _) = region("b4-ir", &ir, 2);
    out.push(shape(format!("magnify({r}, 2)"), "png", None));
    out.push(shape("downsample(goes-sim.b1-vis, 4)".into(), "json", Some(vis.len() / 16)));
    let (r, _) = region("b1-vis", &vis, 4);
    out.push(shape(format!("focal({r}, \"max\", 5)"), "json", None));
    out
}

/// The delivery format a `format=` value selects.
pub fn format_of(name: &str) -> geostreams_dsms::protocol::OutputFormat {
    use geostreams_dsms::protocol::OutputFormat;
    match name {
        "json" => OutputFormat::Json,
        "ndvi" => OutputFormat::PngNdvi,
        "thermal" => OutputFormat::PngThermal,
        _ => OutputFormat::PngGray,
    }
}

fn url_encode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'(' | b')' | b',' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// One round: every shape `per_shape` times as a `/query`, each time
/// over a freshly placed region, and once as an `/explain`.
pub fn round_of_requests(scanner: &Scanner, seed: u64, per_shape: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut requests = Vec::new();
    for i in 0..=per_shape {
        for s in shapes(scanner, &mut rng) {
            let explain = i == per_shape;
            let q = url_encode(&s.query);
            let target = if explain {
                format!("/explain?q={q}")
            } else {
                format!("/query?q={q}&format={}&sectors=1", s.format)
            };
            requests.push(Request {
                target,
                query: s.query,
                format: s.format,
                points: s.points,
                explain,
            });
        }
    }
    rng.shuffle(&mut requests);
    requests
}

/// Sends one request over a fresh connection and reads the response to
/// the end; the server closes the connection after answering.
pub fn fetch(addr: SocketAddr, target: &str) -> std::io::Result<Vec<u8>> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    conn.set_nodelay(true)?;
    conn.write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut response = Vec::new();
    conn.read_to_end(&mut response)?;
    Ok(response)
}

/// What a checked response delivered: pixels of a decodable PNG (and its
/// bytes), `points_delivered` of a JSON answer, nothing for a plan.
pub struct Answer<'a> {
    pub points: u64,
    pub image: Option<&'a [u8]>,
}

pub fn check_response<'a>(request: &Request, response: &'a [u8]) -> Result<Answer<'a>, String> {
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "response has no header end".to_string())?;
    let head = String::from_utf8_lossy(&response[..split]);
    let body = &response[split + 4..];
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("status `{}`", head.lines().next().unwrap_or("")));
    }
    let declared = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse::<usize>().ok());
    if declared != Some(body.len()) {
        return Err(format!("short body: {} of {declared:?} bytes", body.len()));
    }
    if request.explain || request.format == "json" {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let doc: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
        if request.explain {
            return match doc.get("admitted") {
                Some(Value::Bool(true)) => Ok(Answer { points: 0, image: None }),
                other => Err(format!("plan not admitted: {other:?}")),
            };
        }
        let points = number(doc.get("points_delivered"))
            .ok_or_else(|| "no points_delivered".to_string())? as u64;
        return match request.points {
            Some(want) if want != points => Err(format!("{points} points, expected {want}")),
            _ if points == 0 => Err("no points".to_string()),
            _ => Ok(Answer { points, image: None }),
        };
    }
    let pixels = match png::decode(body).map_err(|e| format!("undecodable PNG: {e}"))? {
        Decoded::Gray(g) => g.len(),
        Decoded::Rgb(g) => g.len(),
    };
    Ok(Answer { points: pixels as u64, image: Some(body) })
}

pub struct State {
    scanner: Scanner,
    dsms: Arc<Dsms>,
    server: Option<HttpServer>,
    requests: Vec<Request>,
    /// Bodies of the last round's image answers, for the raster share.
    last_images: Vec<Vec<u8>>,
}

pub struct OneshotHttp;

impl Workload for OneshotHttp {
    type State = State;

    fn setup(env: &Env) -> Result<State, String> {
        let scanner = goes_like(WIDTH, HEIGHT, env.seed);
        let dsms = Arc::new(Dsms::over_scanner(&scanner, 1));
        let server = HttpServer::spawn(Arc::clone(&dsms), "127.0.0.1:0")
            .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
        let requests = round_of_requests(&scanner, env.seed, QUERIES_PER_SHAPE);
        // Warm-up pass: every shape once.
        for request in requests.iter().take(24) {
            let response = fetch(server.addr(), &request.target).map_err(|e| e.to_string())?;
            check_response(request, &response).map_err(|e| format!("{}: {e}", request.target))?;
        }
        Ok(State { scanner, dsms, server: Some(server), requests, last_images: Vec::new() })
    }

    fn measure(
        state: &mut State,
        _env: &Env,
        seconds: f64,
        tracer: Option<&Arc<Tracer>>,
    ) -> Measured {
        let mut m = Measured::default();
        let tracer = tracer.map(Arc::as_ref);
        let Some(addr) = state.server.as_ref().map(HttpServer::addr) else {
            m.errors.push("the server is not running".to_string());
            return m;
        };
        let mut rates = Vec::new();
        let started = Instant::now();
        let mut rounds = 0u32;
        while rounds < 2 || started.elapsed().as_secs_f64() < seconds {
            rounds += 1;
            state.last_images.clear();
            let (mut points, mut busy, mut requests_ms) = (0u64, 0.0, Vec::new());
            let section = Section::start();
            for request in &state.requests {
                m.attempted += 1;
                let t = Instant::now();
                let response = {
                    let _s = span(tracer, "dsms.http_request");
                    fetch(addr, &request.target)
                };
                let dt = t.elapsed().as_secs_f64();
                // Checked between requests: the client's think time,
                // outside every latency and the round's busy time.
                let response = response.map_err(|e| e.to_string());
                match response
                    .as_deref()
                    .map_err(String::clone)
                    .and_then(|r| check_response(request, r))
                {
                    Ok(answer) => {
                        requests_ms.push(dt * 1e3);
                        points += answer.points;
                        busy += dt;
                        state.last_images.extend(answer.image.map(<[u8]>::to_vec));
                    }
                    Err(e) => m.fail(format!("{}: {e}", request.target)),
                }
            }
            let (_, cpu) = section.stop();
            rates.push(points as f64 / busy.max(1e-9));
            m.end_round(points, busy, cpu, requests_ms);
        }
        m.pts_per_s = median(&rates);
        let registered = state.dsms.metrics.queries_registered.get().max(1);
        m.layer.insert(
            "query.plan_cache_hit_rate",
            100.0 * state.dsms.metrics.plan_cache_hits.get() as f64 / registered as f64,
        );
        m.info.push(("rounds", rounds.to_string()));
        m.info.push(("requests_per_round", state.requests.len().to_string()));
        m.info.push(("feed", format!("goes_like({WIDTH}, {HEIGHT}), 1 sector a request")));
        m
    }

    fn attribute(
        state: &mut State,
        _env: &Env,
        untraced: &Measured,
        _traced: &Measured,
        _spans: &[SpanRecord],
        _probes: &LayerValues,
    ) -> Result<LayerValues, String> {
        let mut out = LayerValues::new();
        let rounds = untraced.attempted.max(1) as f64 / state.requests.len() as f64;
        let round_cpu = untraced.cpu_s / rounds;
        let round_busy = untraced.wall_s / rounds;

        // The same round answered by `handle_http` directly, no socket.
        let t = Instant::now();
        for request in &state.requests {
            let raw = format!("GET {} HTTP/1.1\r\n\r\n", request.target);
            check_response(request, &state.dsms.handle_http(&raw))
                .map_err(|e| format!("direct {}: {e}", request.target))?;
        }
        let direct = t.elapsed().as_secs_f64();
        out.insert("dsms.http_overhead_pct", (round_busy / direct - 1.0) * 100.0);

        // Each layer alone over the round's requests.
        let bands: Vec<Materialized> = (0..state.scanner.instrument.bands.len())
            .map(|b| materialize(state.scanner.band_stream(b, 1)))
            .collect();
        let scan_s: Vec<f64> = (0..bands.len())
            .map(|b| {
                let t = Instant::now();
                crate::probes::drain(&mut state.scanner.band_stream(b, 1));
                t.elapsed().as_secs_f64()
            })
            .collect();
        let catalog = catalog_of(&bands.iter().collect::<Vec<_>>());
        let (mut satsim, mut query, mut ops) = (0.0, 0.0, 0.0);
        for request in &state.requests {
            let t = Instant::now();
            let expr = parse_query(&request.query).map_err(|e| e.to_string())?;
            let optimized = optimize(&expr, &catalog);
            std::hint::black_box(analyze(&optimized, &catalog));
            let mut pipeline =
                Planner::new(&catalog).build(&optimized).map_err(|e| e.to_string())?;
            query += t.elapsed().as_secs_f64();
            if request.explain {
                continue;
            }
            for source in expr.source_names() {
                let band = bands.iter().position(|b| b.schema.name == source);
                satsim += band.map_or(0.0, |b| scan_s[b]);
            }
            // The one-shot path runs the scalar driver.
            let t = Instant::now();
            exec::run_observed(&mut pipeline, &PipelineObs::default(), |_| {});
            ops += t.elapsed().as_secs_f64();
        }
        let raster = reencode_seconds(state.last_images.iter().map(Vec::as_slice))?;
        let share = |busy: f64| busy / round_cpu.max(1e-9) * 100.0;
        out.insert("satsim.busy_share", share(satsim));
        out.insert("query.busy_share", share(query));
        out.insert("ops.busy_share", share(ops));
        out.insert("raster.busy_share", share(raster));
        out.insert("dsms.unattributed_share", 100.0 - share(satsim + query + ops + raster));
        Ok(out)
    }

    fn probe_inputs(state: &State) -> ProbeInputs {
        ProbeInputs {
            scanner: state.scanner.clone(),
            queries: shapes(&state.scanner, &mut Rng::new(1))
                .into_iter()
                .map(|s| s.query)
                .collect(),
        }
    }
}

impl Drop for State {
    fn drop(&mut self) {
        // Joins the acceptor and every connection thread.
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}
