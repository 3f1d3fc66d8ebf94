// Lint fixture (not compiled): a store's background thread and its stop
// flag built from raw std, which the model checker cannot see or schedule.
// The raw atomic and the raw spawn must trip the raw-sync rule; the same
// two routed through the shim must not.
use std::sync::atomic::AtomicBool;
use flodb_sync::shim::atomic::AtomicU64;

fn spawn(inner: &Arc<Inner>, name: String) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(|| {})?;
    flodb_sync::shim::thread::spawn_named(name, || {})
}
