//! Task-to-task synchronisation: unbounded mpsc channels, mirroring the
//! tokio::sync API shape.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Unbounded multi-producer single-consumer channel primitives.
pub mod mpsc {
    use super::*;

    struct Inner<T> {
        queue: VecDeque<T>,
        recv_waker: Option<Waker>,
        senders: usize,
        receiver_alive: bool,
    }

    /// Cloneable sending half.
    pub struct Sender<T> {
        inner: Rc<RefCell<Inner<T>>>,
    }

    /// Receiving half.
    pub struct Receiver<T> {
        inner: Rc<RefCell<Inner<T>>>,
    }

    /// Error: the receiver was dropped.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "mpsc receiver dropped")
        }
    }
    impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Rc::new(RefCell::new(Inner {
            queue: VecDeque::new(),
            recv_waker: None,
            senders: 1,
            receiver_alive: true,
        }));
        (
            Sender {
                inner: Rc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.borrow_mut().senders += 1;
            Sender {
                inner: Rc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.inner.borrow_mut();
            inner.senders -= 1;
            if inner.senders == 0 {
                if let Some(w) = inner.recv_waker.take() {
                    w.wake();
                }
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.borrow_mut().receiver_alive = false;
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a value; `Err` if the receiver is gone.
        pub fn send(&self, v: T) -> Result<(), SendError<T>> {
            let mut inner = self.inner.borrow_mut();
            if !inner.receiver_alive {
                return Err(SendError(v));
            }
            inner.queue.push_back(v);
            if let Some(w) = inner.recv_waker.take() {
                w.wake();
            }
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Awaits the next value; `None` once all senders are gone and the
        /// queue is drained.
        pub fn recv(&mut self) -> Recv<'_, T> {
            Recv { rx: self }
        }

        /// Number of queued values.
        pub fn len(&self) -> usize {
            self.inner.borrow_mut().queue.len()
        }

        /// `true` when no values are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Future returned by [`Receiver::recv`].
    pub struct Recv<'a, T> {
        rx: &'a mut Receiver<T>,
    }

    impl<T> Future for Recv<'_, T> {
        type Output = Option<T>;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut inner = self.rx.inner.borrow_mut();
            if let Some(v) = inner.queue.pop_front() {
                return Poll::Ready(Some(v));
            }
            if inner.senders == 0 {
                return Poll::Ready(None);
            }
            inner.recv_waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{spawn, Sim};
    use crate::timer::sleep;
    use std::time::Duration;

    #[test]
    fn mpsc_preserves_order_across_senders() {
        let mut sim = Sim::new(1);
        let got = sim.block_on(async {
            let (tx, mut rx) = mpsc::unbounded();
            for i in 0..3u32 {
                let tx = tx.clone();
                spawn(async move {
                    sleep(Duration::from_millis(u64::from(i) * 10)).await;
                    tx.send(i).unwrap();
                });
            }
            drop(tx);
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn mpsc_recv_none_when_senders_gone() {
        let mut sim = Sim::new(1);
        let r = sim.block_on(async {
            let (tx, mut rx) = mpsc::unbounded::<u8>();
            tx.send(9).unwrap();
            drop(tx);
            (rx.recv().await, rx.recv().await)
        });
        assert_eq!(r, (Some(9), None));
    }

    #[test]
    fn mpsc_send_after_receiver_drop_errors() {
        let mut sim = Sim::new(1);
        sim.block_on(async {
            let (tx, rx) = mpsc::unbounded::<u8>();
            drop(rx);
            assert!(tx.send(1).is_err());
        });
    }
}
