//! HTTP-like client request protocol.
//!
//! §4: "User queries, which are converted by the interface to
//! specialized HTTP requests, are transmitted to the server, parsed, and
//! registered." We accept the same shape —
//!
//! ```text
//! GET /query?q=ndvi(goes.b2%2C%20goes.b1)&format=png&colormap=ndvi HTTP/1.1
//! ```
//!
//! — parse the request line, percent-decode the parameters, and hand the
//! query text to the algebra parser.

use geostreams_core::{CoreError, Result};

/// Requested delivery format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Grayscale PNG frames.
    #[default]
    PngGray,
    /// Color-mapped PNG frames (NDVI ramp).
    PngNdvi,
    /// Color-mapped PNG frames (thermal ramp).
    PngThermal,
    /// No image assembly; point statistics only.
    Stats,
    /// Run statistics delivered as a JSON document.
    Json,
}

impl OutputFormat {
    /// Counting formats deliver a run report instead of PNG frames.
    pub(crate) fn is_counting(self) -> bool {
        matches!(self, OutputFormat::Stats | OutputFormat::Json)
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRequest {
    /// The algebra query text (decoded).
    pub query: String,
    /// Desired output format.
    pub format: OutputFormat,
    /// Number of sectors requested (`sectors=` parameter, default 1).
    pub sectors: u64,
}

/// Percent-decodes a URL component ('+' means space).
fn url_decode(s: &str) -> Result<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                if i + 2 >= bytes.len() {
                    return Err(CoreError::Parse {
                        message: "truncated percent escape".into(),
                        offset: i,
                    });
                }
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).map_err(|_| {
                    CoreError::Parse { message: "bad percent escape".into(), offset: i }
                })?;
                let v = u8::from_str_radix(hex, 16).map_err(|_| CoreError::Parse {
                    message: format!("bad percent escape %{hex}"),
                    offset: i,
                })?;
                out.push(v);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out)
        .map_err(|_| CoreError::Parse { message: "invalid utf-8 after decode".into(), offset: 0 })
}

/// Extracts `(method, path)` from a raw request head — the path is the
/// target with any query string stripped. Used to route the
/// operational endpoints (`/metrics`, `/healthz`) before full query
/// parsing; malformed requests yield empty strings.
pub fn request_target(raw: &str) -> (&str, &str) {
    let line = raw.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (path, _) = target.split_once('?').unwrap_or((target, ""));
    (method, path)
}

/// Parses a request line (optionally a full HTTP request; only the first
/// line matters).
pub fn parse_request(raw: &str) -> Result<ClientRequest> {
    parse_request_at(raw, "/query")
}

/// Parses an `EXPLAIN` request — same parameter shape as `/query`
/// (`q=`, `format=`, `sectors=`) but addressed to `/explain`, asking
/// for the plan's static analysis instead of its execution.
pub fn parse_explain(raw: &str) -> Result<ClientRequest> {
    parse_request_at(raw, "/explain")
}

fn parse_request_at(raw: &str, expected_path: &str) -> Result<ClientRequest> {
    let line = raw.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    if method != "GET" {
        return Err(CoreError::Parse {
            message: format!("unsupported method `{method}`"),
            offset: 0,
        });
    }
    let target = parts.next().unwrap_or("");
    let (path, qs) = target.split_once('?').unwrap_or((target, ""));
    if path != expected_path {
        return Err(CoreError::Parse { message: format!("unknown path `{path}`"), offset: 0 });
    }
    let mut query = None;
    let mut format = OutputFormat::PngGray;
    let mut sectors = 1u64;
    for pair in qs.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match k {
            "q" => query = Some(url_decode(v)?),
            "format" => {
                format = match v {
                    "png" | "gray" => OutputFormat::PngGray,
                    "ndvi" => OutputFormat::PngNdvi,
                    "thermal" => OutputFormat::PngThermal,
                    "stats" => OutputFormat::Stats,
                    "json" => OutputFormat::Json,
                    other => {
                        return Err(CoreError::Parse {
                            message: format!("unknown format `{other}`"),
                            offset: 0,
                        })
                    }
                }
            }
            "sectors" => {
                sectors = v.parse().map_err(|_| CoreError::Parse {
                    message: format!("bad sectors `{v}`"),
                    offset: 0,
                })?;
            }
            _ => {} // ignore unknown parameters
        }
    }
    let query = query
        .ok_or_else(|| CoreError::Parse { message: "missing `q` parameter".into(), offset: 0 })?;
    Ok(ClientRequest { query, format, sectors })
}

/// Renders an HTTP response carrying a plain-text body (used for
/// `/metrics` and `/healthz`).
pub fn text_response(status: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = if status < 400 { "OK" } else { "Error" };
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Renders an HTTP response carrying a JSON document.
pub fn json_response(body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Renders an HTTP response carrying one PNG frame.
pub fn png_response(png: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: image/png\r\nContent-Length: {}\r\n\r\n",
        png.len()
    )
    .into_bytes();
    out.extend_from_slice(png);
    out
}

/// Renders an HTTP error response.
pub fn error_response(status: u16, message: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} Error\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{message}",
        message.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_request() {
        let req = parse_request(
            "GET /query?q=ndvi(goes.b2%2C%20goes.b1)&format=ndvi&sectors=3 HTTP/1.1\r\nHost: x\r\n",
        )
        .unwrap();
        assert_eq!(req.query, "ndvi(goes.b2, goes.b1)");
        assert_eq!(req.format, OutputFormat::PngNdvi);
        assert_eq!(req.sectors, 3);
    }

    #[test]
    fn plus_decodes_to_space() {
        let req = parse_request("GET /query?q=scale(goes.b1,+2,+0) HTTP/1.1").unwrap();
        assert_eq!(req.query, "scale(goes.b1, 2, 0)");
        assert_eq!(req.format, OutputFormat::PngGray);
    }

    #[test]
    fn explain_uses_its_own_path() {
        let req = parse_explain("GET /explain?q=goes.b1&format=stats HTTP/1.1").unwrap();
        assert_eq!(req.query, "goes.b1");
        assert_eq!(req.format, OutputFormat::Stats);
        assert!(parse_explain("GET /query?q=goes.b1 HTTP/1.1").is_err());
        assert!(parse_request("GET /explain?q=goes.b1 HTTP/1.1").is_err());
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(parse_request("POST /query?q=x HTTP/1.1").is_err());
        assert!(parse_request("GET /other?q=x HTTP/1.1").is_err());
        assert!(parse_request("GET /query?format=png HTTP/1.1").is_err());
        assert!(parse_request("GET /query?q=x&format=bmp HTTP/1.1").is_err());
        assert!(parse_request("GET /query?q=x&sectors=abc HTTP/1.1").is_err());
        assert!(parse_request("GET /query?q=%zz HTTP/1.1").is_err());
        assert!(parse_request("GET /query?q=%2 HTTP/1.1").is_err());
    }

    #[test]
    fn responses_have_http_framing() {
        let r = png_response(&[1, 2, 3]);
        let text = String::from_utf8_lossy(&r);
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.contains("Content-Length: 3"));
        assert_eq!(&r[r.len() - 3..], &[1, 2, 3]);
        let e = error_response(400, "bad query");
        assert!(String::from_utf8_lossy(&e).contains("400"));
    }
}
