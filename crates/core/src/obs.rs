//! Observability façade for the figure/table pipeline.
//!
//! Re-exports the `vstream-obs` registry and process-wide collector, and
//! binds the generic per-profile slots of [`vstream_obs::Metrics`] to the
//! paper's four vantage points. The `repro` binary goes through this module
//! so the ledger's profile keys always match
//! [`vstream_net::NetworkProfile::ALL`] order.

pub use vstream_obs::collector;
use vstream_obs::Ledger;

/// Ledger keys for the per-profile table, in
/// [`vstream_net::NetworkProfile`] declaration order — the same order
/// `profile as usize` indexes the registry slots.
pub(crate) const PROFILE_NAMES: [&str; 4] = ["research", "residence", "academic", "home"];

/// Serialises a ledger with the vantage-point profile names bound in.
pub fn ledger_json(ledger: &Ledger) -> String {
    ledger.to_json(&PROFILE_NAMES)
}

/// Renders the human-readable summary tables for a ledger.
pub fn ledger_summary(ledger: &Ledger) -> String {
    ledger.summary(&PROFILE_NAMES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_net::NetworkProfile;

    #[test]
    fn profile_names_match_declaration_order() {
        for (i, p) in NetworkProfile::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i, "profile {p:?} out of order");
            assert_eq!(
                PROFILE_NAMES[i],
                format!("{p:?}").to_ascii_lowercase(),
                "ledger key for {p:?} drifted"
            );
        }
    }
}
