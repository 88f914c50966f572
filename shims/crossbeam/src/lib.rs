//! Offline shim for the `crossbeam` crate: the [`channel`] module only,
//! which is all this workspace uses (`tenblock-dist` message passing and
//! the `tenblock-serve` job queue).
//!
//! Channels are multi-producer **multi-consumer**, like crossbeam's and
//! unlike `std::sync::mpsc`. The implementation is a `Mutex<VecDeque>`
//! with two condvars; throughput is far below the real crate's lock-free
//! queues, but the payloads moved through these channels (tensors, MTTKRP
//! jobs, rank messages) are large enough that channel overhead is noise.

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        buf: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        /// Signalled when the buffer gains an item or all senders leave.
        recv_ready: Condvar,
        /// Signalled when the buffer loses an item or all receivers leave.
        send_ready: Condvar,
    }

    /// Sending half of a channel. Cloning adds a producer.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// Receiving half of a channel. Cloning adds a consumer.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error: all receivers disconnected; the value is returned.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error from [`Sender::try_send`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is bounded and at capacity; the value is returned.
        Full(T),
        /// All receivers disconnected; the value is returned.
        Disconnected(T),
    }

    /// Error: channel empty and all senders disconnected.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error from [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is currently buffered.
        Empty,
        /// Channel empty and all senders disconnected.
        Disconnected,
    }

    /// Error from [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// Channel empty and all senders disconnected.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// Creates a channel with no capacity bound.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a channel holding at most `cap` in-flight messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap))
    }

    fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                buf: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            recv_ready: Condvar::new(),
            send_ready: Condvar::new(),
        });
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.inner.state.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = st.cap.is_some_and(|c| st.buf.len() >= c);
                if !full {
                    st.buf.push_back(value);
                    self.inner.recv_ready.notify_one();
                    return Ok(());
                }
                st = self.inner.send_ready.wait(st).unwrap();
            }
        }

        /// Sends `value` without blocking; a full bounded channel is a
        /// typed rejection, not a wait.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.inner.state.lock().unwrap();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if st.cap.is_some_and(|c| st.buf.len() >= c) {
                return Err(TrySendError::Full(value));
            }
            st.buf.push_back(value);
            self.inner.recv_ready.notify_one();
            Ok(())
        }

        /// Number of messages currently buffered.
        pub fn len(&self) -> usize {
            self.inner.state.lock().unwrap().buf.len()
        }

        /// Whether the buffer is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Receives the next message, blocking while the channel is empty
        /// and any sender remains.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.inner.state.lock().unwrap();
            loop {
                if let Some(v) = st.buf.pop_front() {
                    self.inner.send_ready.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.inner.recv_ready.wait(st).unwrap();
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.inner.state.lock().unwrap();
            match st.buf.pop_front() {
                Some(v) => {
                    self.inner.send_ready.notify_one();
                    Ok(v)
                }
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.inner.state.lock().unwrap();
            loop {
                if let Some(v) = st.buf.pop_front() {
                    self.inner.send_ready.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .inner
                    .recv_ready
                    .wait_timeout(st, deadline - now)
                    .unwrap();
                st = guard;
            }
        }

        /// Number of messages currently buffered.
        pub fn len(&self) -> usize {
            self.inner.state.lock().unwrap().buf.len()
        }

        /// Whether the buffer is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().senders += 1;
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().receivers += 1;
            Receiver {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.inner.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                self.inner.recv_ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.inner.state.lock().unwrap();
            st.receivers -= 1;
            if st.receivers == 0 {
                self.inner.send_ready.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn unbounded_fifo_roundtrip() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn disconnects_are_observed() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_expires() {
        let (_tx, rx) = unbounded::<u8>();
        let err = rx.recv_timeout(Duration::from_millis(10));
        assert_eq!(err, Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn multi_consumer_drains_everything() {
        let (tx, rx) = unbounded();
        let n = 200;
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    while let Ok(v) = rx.recv() {
                        got += v;
                    }
                    got
                })
            })
            .collect();
        for i in 0..n {
            tx.send(i).unwrap();
        }
        drop(tx);
        drop(rx);
        let total: u32 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, n * (n - 1) / 2);
    }
}
