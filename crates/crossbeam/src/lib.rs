//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate.
//!
//! The build environment has no network access, so this workspace ships a
//! small implementation of the one piece of the `crossbeam 0.8` API the
//! CrowdRL crates use: [`channel::unbounded`], a multi-producer
//! **multi-consumer** channel (the part `std::sync::mpsc` cannot do), built
//! on a `Mutex<VecDeque>` + `Condvar`. It feeds the `crowdrl_linalg` pool's
//! job queue; fine for that coarse-grained use, not a lock-free replacement.

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// Receivers wait here for data.
        signal: Condvar,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone;
    /// carries the unsent message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// The sending half; clonable for multi-producer use.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clonable for multi-consumer (work-stealing) use.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Queue `msg`. Fails only when every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.state.lock().expect("channel poisoned");
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            state.queue.push_back(msg);
            drop(state);
            // One message needs one receiver; a receiver that finds the
            // queue empty after a wake-up just waits again.
            self.shared.signal.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Take the next message, blocking until one arrives. Fails only when
        /// the queue is empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.state.lock().expect("channel poisoned");
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.signal.wait(state).expect("channel poisoned");
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().expect("channel poisoned").senders += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .receivers += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.shared.state.lock().expect("channel poisoned").senders -= 1;
            self.shared.signal.notify_all();
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .receivers -= 1;
            self.shared.signal.notify_all();
        }
    }

    /// A channel with no capacity bound.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            signal: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_multi_consumer_delivers_every_job() {
        let (tx, rx) = channel::unbounded::<usize>();
        let (out_tx, out_rx) = channel::unbounded::<usize>();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rx = rx.clone();
                let out_tx = out_tx.clone();
                s.spawn(move || {
                    while let Ok(v) = rx.recv() {
                        out_tx.send(v * 2).unwrap();
                    }
                });
            }
        });
        drop(out_tx);
        let mut got: Vec<usize> = std::iter::from_fn(|| out_rx.recv().ok()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_once_receivers_are_gone() {
        let (tx, rx) = channel::unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_drains_then_disconnects() {
        let (tx, rx) = channel::unbounded::<u8>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }
}
