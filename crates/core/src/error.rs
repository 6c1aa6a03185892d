//! Error type of the core query engine.

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors raised while planning or executing stream queries.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A geospatial computation failed.
    Geo(geostreams_geo::GeoError),
    /// The query text could not be parsed.
    Parse {
        /// Human-readable description.
        message: String,
        /// Byte offset into the query text.
        offset: usize,
    },
    /// A named source stream is not registered in the catalog.
    UnknownSource(String),
    /// An operator received streams whose schemas cannot be combined
    /// (different CRS, lattice, or timestamp semantics).
    SchemaMismatch(String),
    /// A plan parameter is invalid (e.g. magnification factor 0).
    InvalidParameter(String),
    /// The plan references a feature the executor does not support.
    Unsupported(String),
    /// Static plan analysis refused the plan (unbounded buffering,
    /// over-budget worst-case memory, or error-level diagnostics).
    PlanRejected(String),
    /// The tiled raster archive failed (I/O, corrupt segment record,
    /// or an unreadable replay slice).
    Storage(String),
    /// Stored bytes failed an integrity check (CRC mismatch on a
    /// segment record or tile payload). Unlike [`Storage`],
    /// this means the data on disk is provably not what was written —
    /// it must never be decoded into pixels.
    ///
    /// [`Storage`]: CoreError::Storage
    Corruption(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Geo(e) => write!(f, "geospatial error: {e}"),
            CoreError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            CoreError::UnknownSource(name) => write!(f, "unknown source stream `{name}`"),
            CoreError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            CoreError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            CoreError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            CoreError::PlanRejected(msg) => write!(f, "plan rejected: {msg}"),
            CoreError::Storage(msg) => write!(f, "storage error: {msg}"),
            CoreError::Corruption(msg) => write!(f, "corruption detected: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Geo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<geostreams_geo::GeoError> for CoreError {
    fn from(e: geostreams_geo::GeoError) -> Self {
        CoreError::Geo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CoreError::Parse { message: "expected `(`".into(), offset: 7 };
        assert!(e.to_string().contains("byte 7"));
        let e = CoreError::UnknownSource("goes.b1".into());
        assert!(e.to_string().contains("goes.b1"));
    }

    #[test]
    fn geo_errors_convert() {
        let g = geostreams_geo::GeoError::InvalidUtmZone(99);
        let e: CoreError = g.clone().into();
        assert_eq!(e, CoreError::Geo(g));
    }
}
