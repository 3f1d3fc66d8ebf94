// Lint fixture (not compiled): an engine thread polling on a timer. The
// bare sleep and the timed condvar wait must trip the timed-wait rule; the
// waived backoff must not.
fn idle_beat(&self) {
    std::thread::sleep(Duration::from_micros(100));
    let mut g = self.park.lock();
    self.cv.wait_for(&mut g, Duration::from_micros(500));
    // SLEEP-OK: fixture — a failing device's retry backoff, not a poll.
    std::thread::sleep(Duration::from_millis(1));
}

#[cfg(test)]
mod tests {
    // Tests may wait on a timer (e.g. to give a thread the chance to run).
    fn settle() {
        std::thread::sleep(std::time::Duration::from_millis(30));
    }
}
