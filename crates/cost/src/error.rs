//! Typed errors for cost-backend operations.

use pipa_sim::SimError;
use std::fmt;

/// Convenience alias used throughout the cost seam and its consumers.
pub type CostResult<T> = Result<T, CostError>;

/// An error raised by a [`crate::CostBackend`] operation.
///
/// The pre-seam code panicked on these conditions (poisoned locks,
/// incomplete storage); the trait surfaces them as values so advisors,
/// injectors, and the harness can propagate instead of aborting a whole
/// experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// The underlying simulator substrate failed.
    Sim(SimError),
    /// A session handle was passed to a backend (or workload) it was not
    /// created by/for.
    SessionMismatch {
        /// Name of the backend that rejected the session.
        backend: &'static str,
    },
    /// A replay backend had no tape entry for the requested
    /// `(query, config)` pair.
    ReplayMiss {
        /// 128-bit structural fingerprint of the query.
        query: u128,
        /// 128-bit structural fingerprint of the index configuration.
        config: u128,
        /// Whether the miss was on the executed-cost tape (vs estimated).
        executed: bool,
        /// Human-readable description of the offending pair (rendered
        /// SQL, index list, tape size). Diagnostic only: carries no
        /// identity, so two misses on the same fingerprints compare
        /// equal even if rendered differently.
        detail: ReplayMissDetail,
    },
    /// The backend does not support the requested operation.
    Unsupported {
        /// Name of the backend.
        backend: &'static str,
        /// The unsupported operation.
        op: &'static str,
    },
    /// A tape line failed to parse (truncated write, foreign bytes, or
    /// hand-edited file). Carries the 1-based line number and the
    /// offending content so the broken byte range is findable in a
    /// multi-gigabyte tape.
    TapeCorrupt {
        /// 1-based line number within the tape stream.
        line: usize,
        /// The offending line (truncated for display).
        detail: String,
    },
    /// A tape stream exceeded the caller's size guard; the loader stops
    /// reading instead of swallowing an unbounded file into memory.
    TapeTooLarge {
        /// Bytes consumed before the guard tripped.
        bytes: u64,
        /// The configured limit.
        limit: u64,
    },
    /// Reading or parsing a tape failed.
    Io(String),
    /// A backend answered a cost that is NaN, infinite or negative.
    /// Raised by [`finite_cost`] on the measurement route and in the
    /// advisors' environment, so it never reaches a degradation ratio, a
    /// reward or a benefit.
    NonFinite {
        /// Name of the backend that produced the cost.
        backend: &'static str,
        /// The offending cost.
        value: f64,
    },
    /// A target spec named a kind id with no constructor registered in
    /// the target registry (the advisor-side twin of this cost seam).
    /// Raised when a grid, stream, or tenant resolves an `AdvisorSpec`
    /// whose kind was never registered.
    UnknownTarget {
        /// The unresolved kind id.
        kind: String,
        /// Comma-joined ids that *were* registered at resolution time.
        registered: String,
    },
}

/// `value` when it is a usable cost, finite and not negative; otherwise a
/// [`CostError::NonFinite`] naming `backend`. Callers apply it where a
/// cost crosses the [`crate::CostBackend`] seam into arithmetic, so a
/// NaN or infinity never reaches a reward, a benefit or a ratio.
pub fn finite_cost(backend: &'static str, value: f64) -> CostResult<f64> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(CostError::NonFinite { backend, value })
    }
}

/// Diagnostic payload attached to [`CostError::ReplayMiss`]: what the
/// offending `(query, config)` pair actually was, rendered by the backend
/// that raised the miss (SQL text, index names, tape size).
///
/// Compares equal to every other detail so that [`CostError`]'s derived
/// `PartialEq`/`Eq` remain structural on the fingerprints alone — two
/// misses on the same pair are the same error even when one side could
/// render richer context than the other.
#[derive(Debug, Clone, Default)]
pub struct ReplayMissDetail(pub String);

impl PartialEq for ReplayMissDetail {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for ReplayMissDetail {}

impl From<String> for ReplayMissDetail {
    fn from(s: String) -> Self {
        ReplayMissDetail(s)
    }
}

impl fmt::Display for ReplayMissDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::Sim(e) => write!(f, "simulator error: {e}"),
            CostError::SessionMismatch { backend } => {
                write!(f, "cost session does not belong to backend `{backend}`")
            }
            CostError::ReplayMiss {
                query,
                config,
                executed,
                detail,
            } => {
                write!(
                    f,
                    "replay tape miss ({} cost): query {query:032x} under config {config:032x}",
                    if *executed { "executed" } else { "estimated" }
                )?;
                if !detail.0.is_empty() {
                    write!(f, " ({detail})")?;
                }
                Ok(())
            }
            CostError::Unsupported { backend, op } => {
                write!(f, "backend `{backend}` does not support {op}")
            }
            CostError::TapeCorrupt { line, detail } => {
                write!(f, "malformed tape line {line}: {detail}")
            }
            CostError::TapeTooLarge { bytes, limit } => {
                write!(
                    f,
                    "tape stream exceeds the size guard: {bytes} bytes read, limit {limit}"
                )
            }
            CostError::Io(m) => write!(f, "tape i/o error: {m}"),
            CostError::NonFinite { backend, value } => {
                write!(f, "backend `{backend}` measured an invalid cost: {value}")
            }
            CostError::UnknownTarget { kind, registered } => {
                write!(f, "unknown target kind {kind:?} (registered: {registered})")
            }
        }
    }
}

impl std::error::Error for CostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CostError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CostError {
    fn from(e: SimError) -> Self {
        CostError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let e = CostError::from(SimError::NoData);
        assert!(e.to_string().contains("no materialized data"));
        assert!(std::error::Error::source(&e).is_some());
        let m = CostError::ReplayMiss {
            query: 0xab,
            config: 1,
            executed: false,
            detail: ReplayMissDetail::default(),
        };
        assert!(m.to_string().contains("estimated"));
        assert!(m.to_string().contains("000000000000000000000000000000ab"));
        // An empty detail adds nothing; a populated one is rendered.
        assert!(!m.to_string().ends_with("()"));
        let with_detail = CostError::ReplayMiss {
            query: 0xab,
            config: 1,
            executed: false,
            detail: "SELECT * FROM lineitem; config []".to_string().into(),
        };
        assert!(with_detail.to_string().contains("SELECT * FROM lineitem"));
        // Detail is diagnostic, not identity: the two misses are equal.
        assert_eq!(m, with_detail);
        let c = CostError::TapeCorrupt {
            line: 7,
            detail: "{\"event\":\"whatif_cost\",\"kind\":\"est\",\"q\":\"zz".to_string(),
        };
        assert!(c.to_string().contains("line 7"));
        assert!(c.to_string().contains("zz"));
        let big = CostError::TapeTooLarge {
            bytes: 2048,
            limit: 1024,
        };
        assert!(big.to_string().contains("2048"));
        assert!(big.to_string().contains("1024"));
        let u = CostError::Unsupported {
            backend: "replay",
            op: "explain",
        };
        assert!(u.to_string().contains("replay"));
        assert!(CostError::SessionMismatch { backend: "sim" }
            .to_string()
            .contains("sim"));
        let nan = CostError::NonFinite {
            backend: "sim",
            value: f64::NAN,
        };
        assert!(nan.to_string().contains("`sim`"));
        assert!(nan.to_string().contains("NaN"));
    }
}
