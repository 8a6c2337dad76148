//! Execution-mode selection: online binning vs. synchronization.

/// How `EdgeMap` propagates values to vertex data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Online binning (the Blaze contribution): gather threads own bins
    /// exclusively, vertex updates are plain stores.
    #[default]
    Binned,
    /// Synchronization-based variant (Figure 8b): scatter threads update
    /// vertex data directly with compare-and-swap.
    Sync,
}

impl ExecMode {
    /// Parses a `-mode` flag value. Accepts `binned` and `sync`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "binned" => Some(ExecMode::Binned),
            "sync" => Some(ExecMode::Sync),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Binned => write!(f, "binned"),
            ExecMode::Sync => write!(f, "sync"),
        }
    }
}
