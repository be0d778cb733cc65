//! Regenerators for the paper's tables and figures: see `src/bin`.
