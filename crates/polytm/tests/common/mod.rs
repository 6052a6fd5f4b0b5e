//! Helpers shared by this crate's integration tests.

/// Runs its closure on drop — also while a failed assert unwinds — so a
/// test that drives `while !stop` worker threads inside
/// `std::thread::scope` always releases them and fails instead of hanging.
pub struct OnDrop<F: FnMut()>(pub F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}
