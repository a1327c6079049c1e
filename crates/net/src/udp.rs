//! UDP datagram sockets — the substrate for DNS and the QUIC-like
//! handshake.

use std::collections::VecDeque;
use std::net::{IpAddr, SocketAddr};
use std::rc::Rc;
use std::task::{Poll, Waker};

use bytes::Bytes;

use crate::error::NetError;
use crate::packet::{Packet, PacketKind, Proto};
use crate::world::WorldRc;

pub(crate) struct UdpSockState {
    pub queue: VecDeque<(SocketAddr, Bytes)>,
    pub waker: Option<Waker>,
    pub closed: bool,
}

/// A bound UDP socket.
///
/// Binding to an unspecified address (`0.0.0.0` / `::`) receives on every
/// host address; the source address of replies is then chosen per
/// destination family.
pub struct UdpSocket {
    world: WorldRc,
    host: usize,
    local: SocketAddr,
    state: Rc<std::cell::RefCell<UdpSockState>>,
}

impl std::fmt::Debug for UdpSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpSocket")
            .field("local", &self.local)
            .finish()
    }
}

pub(crate) fn bind(world: &WorldRc, host: usize, addr: SocketAddr) -> Result<UdpSocket, NetError> {
    let state = Rc::new(std::cell::RefCell::new(UdpSockState {
        queue: VecDeque::new(),
        waker: None,
        closed: false,
    }));
    let mut w = world.borrow_mut();
    let mut local = addr;
    if local.port() == 0 {
        let p = w.hosts[host].alloc_ephemeral();
        local.set_port(p);
    }
    if local.ip().is_unspecified() {
        if w.hosts[host].udp_any.contains_key(&local.port()) {
            return Err(NetError::AddrInUse);
        }
        w.hosts[host]
            .udp_any
            .insert(local.port(), Rc::clone(&state));
    } else {
        if !w.hosts[host].addrs.contains(&local.ip()) {
            return Err(NetError::AddrNotAvailable);
        }
        let k = (local.ip(), local.port());
        if w.hosts[host].udp_bound.contains_key(&k) {
            return Err(NetError::AddrInUse);
        }
        w.hosts[host].udp_bound.insert(k, Rc::clone(&state));
    }
    Ok(UdpSocket {
        world: Rc::clone(world),
        host,
        local,
        state,
    })
}

pub(crate) fn deliver(world: &WorldRc, host: usize, pkt: Packet) {
    let PacketKind::Datagram(payload) = pkt.kind else {
        return;
    };
    let sock = {
        let w = world.borrow();
        let hs = &w.hosts[host];
        hs.udp_bound
            .get(&(pkt.dst.ip(), pkt.dst.port()))
            .or_else(|| hs.udp_any.get(&pkt.dst.port()))
            .cloned()
    };
    // No socket: a real host would send ICMP port-unreachable; clients in
    // this testbed all use application-level timeouts instead, so the
    // datagram just vanishes.
    let Some(sock) = sock else { return };
    let mut s = sock.borrow_mut();
    if s.closed {
        return;
    }
    s.queue.push_back((pkt.src, payload));
    if let Some(w) = s.waker.take() {
        w.wake();
    }
}

impl UdpSocket {
    /// The bound local address (possibly wildcard, with a concrete port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Sends a datagram. For wildcard-bound sockets the source address is
    /// the host's first address matching the destination's family.
    pub fn send_to(&self, payload: Bytes, dst: SocketAddr) -> Result<(), NetError> {
        let src_ip: IpAddr = if self.local.ip().is_unspecified() {
            let w = self.world.borrow();
            w.hosts[self.host]
                .pick_source(dst.ip())
                .ok_or(NetError::NoRoute)?
        } else {
            if crate::addr::Family::of(self.local.ip()) != crate::addr::Family::of(dst.ip()) {
                return Err(NetError::NoRoute);
            }
            self.local.ip()
        };
        crate::world::send_packet(
            &self.world,
            self.host,
            Packet {
                src: SocketAddr::new(src_ip, self.local.port()),
                dst,
                proto: Proto::Udp,
                kind: PacketKind::Datagram(payload),
            },
        );
        Ok(())
    }

    /// Waits for the next datagram: `(payload, source)`.
    pub async fn recv_from(&self) -> Result<(Bytes, SocketAddr), NetError> {
        RecvFut { sock: self }.await
    }
}

impl Drop for UdpSocket {
    fn drop(&mut self) {
        self.state.borrow_mut().closed = true;
        let mut w = self.world.borrow_mut();
        if self.local.ip().is_unspecified() {
            w.hosts[self.host].udp_any.remove(&self.local.port());
        } else {
            w.hosts[self.host]
                .udp_bound
                .remove(&(self.local.ip(), self.local.port()));
        }
    }
}

struct RecvFut<'a> {
    sock: &'a UdpSocket,
}

impl std::future::Future for RecvFut<'_> {
    type Output = Result<(Bytes, SocketAddr), NetError>;
    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut std::task::Context<'_>) -> Poll<Self::Output> {
        let mut s = self.sock.state.borrow_mut();
        if let Some((src, payload)) = s.queue.pop_front() {
            return Poll::Ready(Ok((payload, src)));
        }
        if s.closed {
            return Poll::Ready(Err(NetError::Closed));
        }
        s.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}
