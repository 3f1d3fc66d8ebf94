// Lint fixture (not compiled): an engine crate reading a tuning knob from
// the process environment. The read must trip the env-read rule.
fn follower_spin() -> u32 {
    std::env::var("FLODB_FOLLOWER_SPIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

#[cfg(test)]
mod tests {
    // Tests may consult the environment (e.g. a soak-length override).
    fn iters() -> Option<String> {
        std::env::var("ITERS").ok()
    }
}
