//! Query language, optimizer and multi-query index (§3.4 and §4).

pub mod analyze;
pub mod ast;
pub mod canon;
pub mod cascade;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod pushdown;

pub use analyze::{
    analyze, analyze_with, AnalyzeOptions, Diagnostic, OpAnalysis, ParallelismReport, Plan,
    PlanReport, ReplayEstimate, ReplayProvider, Severity, SharingReport, SubplanKey,
};
pub use ast::Expr;
pub use canon::{canonical_key, canonical_text, canonicalize, key_hex};
pub use cascade::{CascadeTree, NaiveRegionIndex, RegionIndex};
pub use optimizer::{optimize, optimize_with};
pub use parser::parse_query;
pub use plan::{Catalog, Planner};
pub use pushdown::{source_windows, time_set_window, SourceWindow, TimeWindow};
