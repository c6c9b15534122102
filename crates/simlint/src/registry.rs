//! The `STREAMS.md` workspace stream registry, as read by R002.
//!
//! Two call sites minting the same lineage chain would hand the same
//! substream to two different consumers — correlated randomness nobody
//! asked for. R002 flags every such collision *unless* the chain is
//! registered here as deliberate (the classic legitimate case is common
//! random numbers: two policy arms sharing one stream on purpose).
//!
//! The registry is the `Shared streams` table in the workspace-root
//! `STREAMS.md`:
//!
//! ```text
//! ## Shared streams
//!
//! | stream | files | reason |
//! |--------|-------|--------|
//! | svc-crn | crates/fleet/src/maintenance.rs | CRN: both arms share draws |
//! ```
//!
//! * `stream` — the rendered lineage chain (see `crate::lineage`);
//! * `files` — space- or comma-separated workspace-relative paths allowed
//!   to mint it;
//! * `reason` — why sharing is correct, for the audit trail.
//!
//! An entry that no longer matches at least two live call sites is itself
//! an R002 finding (stale registry), the same bar R004 holds pragmas to.

use std::collections::BTreeSet;
use std::path::Path;

/// One registered shared stream.
#[derive(Clone, Debug)]
pub struct RegistryEntry {
    /// Rendered lineage chain.
    pub chain: String,
    /// Files allowed to mint this chain.
    pub files: BTreeSet<String>,
    /// 1-based line of the table row in `STREAMS.md`.
    pub line: u32,
}

/// The parsed registry. Missing `STREAMS.md` parses as empty — every
/// collision is then unregistered.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    /// Entries in file order.
    pub entries: Vec<RegistryEntry>,
}

impl Registry {
    /// Loads the registry from `<root>/STREAMS.md` if present.
    pub fn load(root: &Path) -> Registry {
        match std::fs::read_to_string(root.join("STREAMS.md")) {
            Ok(text) => Registry::parse(&text),
            Err(_) => Registry::default(),
        }
    }

    /// Parses the `Shared streams` table out of markdown text.
    pub fn parse(text: &str) -> Registry {
        let mut entries = Vec::new();
        let mut in_section = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if let Some(heading) = line.strip_prefix("##") {
                in_section = heading.trim().eq_ignore_ascii_case("shared streams");
                continue;
            }
            if !in_section || !line.starts_with('|') {
                continue;
            }
            let cells: Vec<&str> =
                line.trim_matches('|').split('|').map(str::trim).collect();
            if cells.len() < 3 {
                continue;
            }
            // Skip the header row and the divider row.
            if cells[0].eq_ignore_ascii_case("stream")
                || cells[0].chars().all(|c| c == '-' || c == ':')
            {
                continue;
            }
            let files: BTreeSet<String> = cells[1]
                .split([',', ' '])
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            entries.push(RegistryEntry {
                chain: cells[0].to_string(),
                files,
                line: (i + 1) as u32,
            });
        }
        Registry { entries }
    }

    /// Looks up the entry for a chain, if registered.
    pub fn entry(&self, chain: &str) -> Option<&RegistryEntry> {
        self.entries.iter().find(|e| e.chain == chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shared_streams_table_only() {
        let md = "\
# STREAMS\n\
Some prose with | pipes | in it.\n\
\n\
## Shared streams\n\
\n\
| stream | files | reason |\n\
|--------|-------|--------|\n\
| svc-crn | crates/fleet/src/maintenance.rs | CRN pair |\n\
| a/b | x.rs, y.rs | two minters |\n\
\n\
## Stream inventory\n\
| not | a | registry row |\n";
        let r = Registry::parse(md);
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].chain, "svc-crn");
        assert!(r.entries[0].files.contains("crates/fleet/src/maintenance.rs"));
        let ab = r.entry("a/b").map(|e| e.files.len());
        assert_eq!(ab, Some(2));
        assert!(r.entry("not").is_none());
    }

    #[test]
    fn missing_file_is_an_empty_registry() {
        let r = Registry::load(Path::new("/nonexistent-simlint-root"));
        assert!(r.entries.is_empty());
    }
}
