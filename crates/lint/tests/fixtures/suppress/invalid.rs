// Suppression fixture: an allow WITHOUT a reason is invalid and does
// not suppress — the finding below must still be reported.

pub fn check_mac(mac: &[u8], other: &[u8]) -> bool {
    // gdp-lint: allow(CT01)
    mac == other
}

pub fn wrong_rule(sig: &[u8], other: &[u8]) -> bool {
    // gdp-lint: allow(SK01) -- fixture: reason present but names the wrong rule
    sig != other
}
