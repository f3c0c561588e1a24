//! Typed query-stage errors.
//!
//! Every failure a query can hit — malformed input, a keyword the master
//! index has never seen, a plan referencing a connection relation the
//! catalog does not hold, a contradictory execution mode — is a value of
//! [`XkError`]. The [`crate::engine::QueryEngine`] returns these from
//! `query`/`explain`/`prepare` so a bad query on a shared, long-lived
//! engine degrades into an error result instead of a panic; the
//! [`crate::xkeyword::XKeyword`] façade keeps its legacy soft semantics
//! (unknown keywords → empty results) by mapping over them.

use xkw_store::StoreError;

/// Maximum keywords per query — exact keyword sets are u16 bitsets.
pub const MAX_KEYWORDS: usize = 16;

/// A typed query-stage failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XkError {
    /// The query had no keywords.
    EmptyQuery,
    /// The query exceeded [`MAX_KEYWORDS`].
    TooManyKeywords {
        /// Keywords in the query.
        count: usize,
    },
    /// A keyword has an empty containing list — it occurs nowhere in the
    /// indexed data, so no candidate network can produce a result.
    UnknownKeyword(String),
    /// A plan referenced a connection relation the catalog does not hold.
    MissingRelation {
        /// The fragment index asked for.
        index: usize,
        /// Relations actually in the catalog.
        len: usize,
    },
    /// A plan's column/role map does not fit the relation's arity.
    ArityMismatch {
        /// The fragment index involved.
        relation: usize,
        /// The relation's arity.
        expected: usize,
        /// Columns the plan binds.
        got: usize,
    },
    /// A contradictory execution mode (cached execution with a zero
    /// capacity cache).
    BadMode(String),
    /// A worker thread panicked during multi-threaded plan evaluation.
    WorkerPanic {
        /// The panic payload (if it was a string).
        message: String,
        /// Index of the plan the worker was evaluating when it panicked
        /// (`None` if the panic happened outside any plan).
        plan: Option<usize>,
        /// The query's keywords, when known (decorated by the engine;
        /// bare `exec::` entry points see plans, not keywords).
        keywords: Vec<String>,
    },
    /// The query's deadline elapsed before any result was produced.
    DeadlineExceeded,
    /// A storage-layer failure.
    Store(StoreError),
    /// An ingested document failed to parse or classify against the TSS
    /// — rejected before the WAL or any index was touched.
    BadDocument(String),
    /// A document id the write path never ingested (or already deleted).
    UnknownDocument(u64),
}

impl XkError {
    /// Decorates worker-panic errors with the query's keyword set (the
    /// engine knows the keywords; the executor only knows plans).
    #[must_use]
    pub fn with_keywords(mut self, kws: &[&str]) -> Self {
        if let XkError::WorkerPanic { keywords, .. } = &mut self {
            *keywords = kws.iter().map(|k| (*k).to_owned()).collect();
        }
        self
    }
}

impl std::fmt::Display for XkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyQuery => write!(f, "query has no keywords"),
            Self::TooManyKeywords { count } => {
                write!(f, "query has {count} keywords (at most {MAX_KEYWORDS})")
            }
            Self::UnknownKeyword(kw) => {
                write!(f, "keyword {kw:?} does not occur in the data")
            }
            Self::MissingRelation { index, len } => {
                write!(f, "connection relation {index} missing (catalog has {len})")
            }
            Self::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation {relation} arity mismatch: has {expected} columns, plan binds {got}"
            ),
            Self::BadMode(why) => write!(f, "bad execution mode: {why}"),
            Self::WorkerPanic {
                message,
                plan,
                keywords,
            } => {
                write!(f, "worker thread panicked during execution: {message}")?;
                if let Some(p) = plan {
                    write!(f, " (plan {p})")?;
                }
                if !keywords.is_empty() {
                    write!(f, " (keywords: {})", keywords.join(", "))?;
                }
                Ok(())
            }
            Self::DeadlineExceeded => {
                write!(f, "query deadline elapsed before any result was produced")
            }
            Self::Store(e) => write!(f, "store error: {e}"),
            Self::BadDocument(why) => write!(f, "document rejected: {why}"),
            Self::UnknownDocument(doc) => {
                write!(f, "document {doc} was never ingested (or already deleted)")
            }
        }
    }
}

impl std::error::Error for XkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for XkError {
    fn from(e: StoreError) -> Self {
        XkError::Store(e)
    }
}

/// Validates keyword-list shape (non-empty, within the bitset width).
///
/// # Errors
/// [`XkError::EmptyQuery`] or [`XkError::TooManyKeywords`].
pub fn validate_keywords(keywords: &[&str]) -> Result<(), XkError> {
    if keywords.is_empty() {
        return Err(XkError::EmptyQuery);
    }
    if keywords.len() > MAX_KEYWORDS {
        return Err(XkError::TooManyKeywords {
            count: keywords.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_bounds() {
        assert_eq!(validate_keywords(&[]), Err(XkError::EmptyQuery));
        let many: Vec<&str> = vec!["k"; 17];
        assert_eq!(
            validate_keywords(&many),
            Err(XkError::TooManyKeywords { count: 17 })
        );
        assert!(validate_keywords(&["a", "b"]).is_ok());
    }

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = XkError::UnknownKeyword("florp".into());
        assert!(e.to_string().contains("florp"));
        assert!(e.source().is_none());
        let s = XkError::from(StoreError::MissingTable("t".into()));
        assert!(s.to_string().contains("store error"));
        assert!(s.source().is_some());
        assert!(XkError::DeadlineExceeded.to_string().contains("deadline"));
    }

    #[test]
    fn worker_panic_names_plan_and_keywords() {
        let e = XkError::WorkerPanic {
            message: "boom".into(),
            plan: Some(3),
            keywords: Vec::new(),
        }
        .with_keywords(&["john", "vcr"]);
        let text = e.to_string();
        assert!(text.contains("worker thread panicked"));
        assert!(text.contains("boom"));
        assert!(text.contains("plan 3"));
        assert!(text.contains("john, vcr"));
        // Decoration leaves other variants untouched.
        assert_eq!(
            XkError::EmptyQuery.with_keywords(&["x"]),
            XkError::EmptyQuery
        );
    }
}
