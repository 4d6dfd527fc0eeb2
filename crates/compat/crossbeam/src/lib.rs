//! Minimal, dependency-free shim exposing the subset of the `crossbeam` API
//! this workspace uses, built on `std::sync`.
//!
//! Vendored so the workspace builds in fully offline environments. Provides
//! [`channel::bounded`] — an MPMC bounded channel with crossbeam's
//! disconnect semantics (send fails once all receivers are gone; recv fails
//! once the queue is empty and all senders are gone), which `std::sync::mpsc`
//! cannot stand in for (its receiver is single-consumer).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        inner: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    struct State<T> {
        queue: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
    }

    /// Error returned by [`Sender::send`] when all receivers are dropped.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Sending half of a bounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of a bounded channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates a bounded MPMC channel of capacity `cap` (at least 1).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(State {
                queue: VecDeque::with_capacity(cap.max(1)),
                cap: cap.max(1),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    impl<T> Sender<T> {
        /// Blocks until space is available, then enqueues `value`. Fails if
        /// every `Receiver` has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.inner.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                if st.queue.len() < st.cap {
                    st.queue.push_back(value);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                st = self.shared.not_full.wait(st).unwrap();
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().senders += 1;
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.inner.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                // Wake receivers so they observe the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value is available. Fails once the channel is
        /// empty and every `Sender` has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.inner.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.not_empty.wait(st).unwrap();
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.inner.lock().unwrap();
            if let Some(v) = st.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Iterates until the channel is disconnected and drained.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().receivers += 1;
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.inner.lock().unwrap();
            st.receivers -= 1;
            if st.receivers == 0 {
                // Wake senders so they observe the disconnect.
                self.shared.not_full.notify_all();
            }
        }
    }

    /// Blocking iterator over received values.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<'a, T> Iterator for Iter<'a, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_roundtrip_and_disconnect() {
        let (tx, rx) = channel::bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn channel_send_fails_after_rx_drop() {
        let (tx, rx) = channel::bounded::<u32>(1);
        drop(rx);
        assert!(tx.send(7).is_err());
    }

    #[test]
    fn channel_blocking_handoff_across_threads() {
        let (tx, rx) = channel::bounded::<u64>(1);
        let h = std::thread::spawn(move || {
            let mut sum = 0;
            while let Ok(v) = rx.recv() {
                sum += v;
            }
            sum
        });
        for i in 0..100u64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(h.join().unwrap(), 4950);
    }
}
