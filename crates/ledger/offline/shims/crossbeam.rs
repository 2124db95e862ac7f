//! Offline stand-in for `crossbeam`: the `channel` constructors the
//! thread engine uses, over `std::sync::mpsc`. The engine has a single
//! consumer per channel, so std's MPSC is sufficient.

pub mod channel {
    use std::sync::mpsc;

    pub use std::sync::mpsc::{RecvError, SendError};

    pub struct Sender<T>(Tx<T>);

    enum Tx<T> {
        Bounded(mpsc::SyncSender<T>),
        Unbounded(mpsc::Sender<T>),
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(match &self.0 {
                Tx::Bounded(s) => Tx::Bounded(s.clone()),
                Tx::Unbounded(s) => Tx::Unbounded(s.clone()),
            })
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            match &self.0 {
                Tx::Bounded(s) => s.send(msg),
                Tx::Unbounded(s) => s.send(msg),
            }
        }
    }

    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(Tx::Bounded(tx)), Receiver(rx))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(Tx::Unbounded(tx)), Receiver(rx))
    }
}
