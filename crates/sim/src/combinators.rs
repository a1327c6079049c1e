//! Small future combinators: [`race`], [`join2`], [`join_all`], [`Either`].
//!
//! These cover what the Happy Eyeballs engine needs (racing connection
//! attempts against delays, fanning out parallel DNS queries) without
//! pulling in the `futures` crate.
//!
//! [`race`] and [`join2`] pin their operands on the stack of their own
//! async state machine (`std::pin::pin!`), so building one costs zero
//! heap allocations — the engine builds one per state-machine step, and
//! the earlier `Box::pin`-per-operand layout made the allocator a hot
//! path. Only [`join_all`] still boxes: a dynamic number of `!Unpin`
//! futures needs one stable heap slot each.

use std::future::{poll_fn, Future};
use std::pin::{pin, Pin};
use std::task::{Context, Poll};

/// Result of [`race`]: which of the two futures finished first.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Either<A, B> {
    /// The left future won.
    Left(A),
    /// The right future won.
    Right(B),
}

/// Races two futures; the loser is dropped (cancelled). The left future is
/// polled first on every wake, so ties resolve deterministically to `Left`.
pub async fn race<A: Future, B: Future>(a: A, b: B) -> Either<A::Output, B::Output> {
    let mut a = pin!(a);
    let mut b = pin!(b);
    poll_fn(move |cx| {
        if let Poll::Ready(v) = a.as_mut().poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = b.as_mut().poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    })
    .await
}

/// Awaits both futures concurrently, returning both outputs. The left
/// future is polled first on every wake.
pub async fn join2<A: Future, B: Future>(a: A, b: B) -> (A::Output, B::Output) {
    let mut a = pin!(a);
    let mut b = pin!(b);
    let mut ra = None;
    let mut rb = None;
    poll_fn(move |cx| {
        if ra.is_none() {
            if let Poll::Ready(v) = a.as_mut().poll(cx) {
                ra = Some(v);
            }
        }
        if rb.is_none() {
            if let Poll::Ready(v) = b.as_mut().poll(cx) {
                rb = Some(v);
            }
        }
        if ra.is_some() && rb.is_some() {
            Poll::Ready((ra.take().unwrap(), rb.take().unwrap()))
        } else {
            Poll::Pending
        }
    })
    .await
}

/// Future returned by [`join_all`].
pub struct JoinAll<F: Future> {
    futs: Vec<Option<Pin<Box<F>>>>,
    outs: Vec<Option<F::Output>>,
}

// Sound: the stored outputs are never pinned-projected; all polling goes
// through the `Pin<Box<_>>` slots, which are `Unpin` regardless of `F`.
impl<F: Future> Unpin for JoinAll<F> {}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut all_done = true;
        for (slot, out) in this.futs.iter_mut().zip(this.outs.iter_mut()) {
            if let Some(fut) = slot {
                match fut.as_mut().poll(cx) {
                    Poll::Ready(v) => {
                        *out = Some(v);
                        *slot = None;
                    }
                    Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            Poll::Ready(this.outs.iter_mut().map(|o| o.take().unwrap()).collect())
        } else {
            Poll::Pending
        }
    }
}

/// Awaits every future concurrently; outputs are returned in input order.
pub fn join_all<F: Future>(futs: impl IntoIterator<Item = F>) -> JoinAll<F> {
    let futs: Vec<_> = futs.into_iter().map(|f| Some(Box::pin(f))).collect();
    let outs = futs.iter().map(|_| None).collect();
    JoinAll { futs, outs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, Sim};
    use crate::timer::sleep;
    use std::time::Duration;

    #[test]
    fn race_picks_faster() {
        let mut sim = Sim::new(1);
        let r = sim.block_on(async {
            race(
                async {
                    sleep(Duration::from_millis(20)).await;
                    "slow"
                },
                async {
                    sleep(Duration::from_millis(5)).await;
                    "fast"
                },
            )
            .await
        });
        assert_eq!(r, Either::Right("fast"));
        assert_eq!(sim.now().as_millis(), 5);
    }

    #[test]
    fn race_tie_goes_left() {
        let mut sim = Sim::new(1);
        let r = sim.block_on(async {
            race(
                async {
                    sleep(Duration::from_millis(5)).await;
                    1
                },
                async {
                    sleep(Duration::from_millis(5)).await;
                    2
                },
            )
            .await
        });
        // Both become ready; the left timer fires first (registration order)
        // and the race resolves Left.
        assert_eq!(r, Either::Left(1));
    }

    #[test]
    fn join2_waits_for_both() {
        let mut sim = Sim::new(1);
        let (a, b) = sim.block_on(async {
            join2(
                async {
                    sleep(Duration::from_millis(30)).await;
                    now().as_millis()
                },
                async {
                    sleep(Duration::from_millis(10)).await;
                    now().as_millis()
                },
            )
            .await
        });
        assert_eq!((a, b), (30, 10));
        assert_eq!(sim.now().as_millis(), 30, "concurrent, not sequential");
    }

    #[test]
    fn join_all_preserves_order() {
        let mut sim = Sim::new(1);
        let outs = sim.block_on(async {
            join_all((0..5u64).map(|i| async move {
                sleep(Duration::from_millis(50 - i * 10)).await;
                i
            }))
            .await
        });
        assert_eq!(outs, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.now().as_millis(), 50);
    }

    #[test]
    fn join_all_empty() {
        let mut sim = Sim::new(1);
        let outs: Vec<u8> =
            sim.block_on(async { join_all(Vec::<std::future::Ready<u8>>::new()).await });
        assert!(outs.is_empty());
    }
}
