//! The fabric's error type, shared by the control plane and the worker.

use crate::proto::FrameError;
use avgi_faultsim::error::CampaignError;

/// How a grid campaign failed.
#[derive(Debug)]
pub enum GridError {
    /// Socket or journal I/O failed.
    Io(std::io::Error),
    /// Campaign-level failure (journal mismatch, bad shard index, …).
    Campaign(CampaignError),
    /// Framing failure on a connection the caller owns (worker side).
    Frame(FrameError),
    /// The peer violated the protocol (bad handshake, rejection, …).
    Protocol(String),
    /// The spec could not be satisfied locally (unknown workload, golden
    /// or config cross-check failed, …).
    Spec(String),
}

impl core::fmt::Display for GridError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GridError::Io(e) => write!(f, "I/O failed: {e}"),
            GridError::Campaign(e) => write!(f, "campaign failed: {e}"),
            GridError::Frame(e) => write!(f, "framing failed: {e}"),
            GridError::Protocol(m) => write!(f, "protocol violation: {m}"),
            GridError::Spec(m) => write!(f, "unsatisfiable spec: {m}"),
        }
    }
}

impl std::error::Error for GridError {}

impl From<std::io::Error> for GridError {
    fn from(e: std::io::Error) -> Self {
        GridError::Io(e)
    }
}

impl From<CampaignError> for GridError {
    fn from(e: CampaignError) -> Self {
        GridError::Campaign(e)
    }
}

impl From<FrameError> for GridError {
    fn from(e: FrameError) -> Self {
        GridError::Frame(e)
    }
}
