//! Typed errors for the streaming update pipeline.

use imre_corpus::stream::StreamError;
use imre_serve::ServeError;
use std::fmt;
use std::io;

/// Everything that can go wrong between a delta line and a published bundle.
#[derive(Debug)]
pub enum StreamUpdateError {
    /// The delta source produced a malformed line or failed to read.
    Source(StreamError),
    /// Bundle IO (load of the base artifact, atomic save of a publish).
    Io(io::Error),
    /// The refreshed bundle failed serving validation or registration.
    Serve(ServeError),
    /// A stream-annotated type id exceeds the model's type-embedding table.
    TypeOutOfRange {
        /// The entity whose annotation was rejected.
        entity: String,
        /// The offending type id.
        type_id: usize,
        /// The model's table height (valid ids are `0..num_types`).
        num_types: usize,
    },
    /// A publish was requested before any co-occurrence crossed the
    /// admission threshold — there is no graph to embed yet.
    EmptyGraph,
    /// The base bundle has no entity embedding (streaming refresh requires
    /// an `*-MR` bundle; there is nothing to refresh otherwise).
    NoEmbedding,
    /// The base bundle's entity embedding has a width LINE cannot refresh:
    /// odd, or below 2 (its two orders take half of it each).
    EmbeddingWidth(usize),
}

impl fmt::Display for StreamUpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamUpdateError::Source(e) => write!(f, "delta source: {e}"),
            StreamUpdateError::Io(e) => write!(f, "bundle io: {e}"),
            StreamUpdateError::Serve(e) => write!(f, "serving: {e}"),
            StreamUpdateError::TypeOutOfRange {
                entity,
                type_id,
                num_types,
            } => write!(
                f,
                "entity {entity:?}: type id {type_id} out of range (model has {num_types} types)"
            ),
            StreamUpdateError::EmptyGraph => {
                write!(f, "no co-occurrence has crossed the threshold yet")
            }
            StreamUpdateError::NoEmbedding => {
                write!(f, "base bundle carries no entity embedding to refresh")
            }
            StreamUpdateError::EmbeddingWidth(dim) => write!(
                f,
                "base entity embedding is {dim} wide; LINE refreshes only an even width of at least 2"
            ),
        }
    }
}

impl std::error::Error for StreamUpdateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamUpdateError::Source(e) => Some(e),
            StreamUpdateError::Io(e) => Some(e),
            StreamUpdateError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StreamError> for StreamUpdateError {
    fn from(e: StreamError) -> Self {
        StreamUpdateError::Source(e)
    }
}

impl From<io::Error> for StreamUpdateError {
    fn from(e: io::Error) -> Self {
        StreamUpdateError::Io(e)
    }
}

impl From<ServeError> for StreamUpdateError {
    fn from(e: ServeError) -> Self {
        StreamUpdateError::Serve(e)
    }
}
