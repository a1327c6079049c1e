//! Address-family helpers and prefix matching.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// IP address family — the axis Happy Eyeballs races along.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Family {
    /// IPv4.
    V4,
    /// IPv6.
    V6,
}

// The one JSON spelling of a family.
lazyeye_json::impl_json_unit_enum!(Family { V4 = "v4", V6 = "v6" });

impl Family {
    /// Family of an address.
    pub fn of(addr: IpAddr) -> Family {
        match addr {
            IpAddr::V4(_) => Family::V4,
            IpAddr::V6(_) => Family::V6,
        }
    }

    /// The other family.
    pub fn other(self) -> Family {
        match self {
            Family::V4 => Family::V6,
            Family::V6 => Family::V4,
        }
    }

    /// Short label used in tables and figures ("IPv4"/"IPv6").
    pub fn label(self) -> &'static str {
        match self {
            Family::V4 => "IPv4",
            Family::V6 => "IPv6",
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The family strip: one character per cell, `6` for IPv6 and `4` for
/// IPv4, plus `x` for a cell with no family. Partials store selection
/// orders and web-tool tiers this way, traces store candidate orders,
/// and the CLI prints sweeps. As an `impl_json_struct!` `with` codec, a
/// `Vec` of cells is one JSON string.
pub mod strip {
    use super::Family;
    use lazyeye_json::{Json, JsonError};

    /// One strip character: a [`Family`], or an `Option<Family>`.
    pub trait Cell: Copy {
        /// The cell's character.
        fn to_char(self) -> char;
        /// The cell a character spells, if any.
        fn from_char(c: char) -> Option<Self>;
    }

    impl Cell for Family {
        fn to_char(self) -> char {
            match self {
                Family::V6 => '6',
                Family::V4 => '4',
            }
        }

        fn from_char(c: char) -> Option<Family> {
            [Family::V6, Family::V4]
                .into_iter()
                .find(|f| f.to_char() == c)
        }
    }

    impl Cell for Option<Family> {
        fn to_char(self) -> char {
            self.map_or('x', Family::to_char)
        }

        fn from_char(c: char) -> Option<Option<Family>> {
            (c == 'x')
                .then_some(None)
                .or_else(|| Family::from_char(c).map(Some))
        }
    }

    /// Renders `cells` as a strip.
    pub fn render<C: Cell>(cells: &[C]) -> String {
        cells.iter().map(|c| c.to_char()).collect()
    }

    /// The strip as a JSON string.
    pub fn to_json<C: Cell>(cells: &[C]) -> Json {
        Json::Str(render(cells))
    }

    /// Parses a strip from a JSON string.
    pub fn from_json<C: Cell>(v: &Json) -> Result<Vec<C>, JsonError> {
        let strip = v
            .as_str()
            .ok_or_else(|| JsonError::new(format!("expected strip, got {v}")))?;
        strip
            .chars()
            .map(|c| C::from_char(c).ok_or_else(|| JsonError::new(format!("strip cell {c:?}"))))
            .collect()
    }

    /// An absent strip is an error.
    pub fn from_missing<C>(name: &str) -> Result<Vec<C>, JsonError> {
        Err(JsonError::new(format!("missing field {name:?}")))
    }
}

/// A CIDR prefix used by netem rules to select traffic.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct IpPrefix {
    addr: IpAddr,
    len: u8,
}

impl IpPrefix {
    /// Creates a prefix; `len` is clamped to the family's maximum.
    pub fn new(addr: IpAddr, len: u8) -> IpPrefix {
        let max = match addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        IpPrefix {
            addr,
            len: len.min(max),
        }
    }

    /// A host prefix (/32 or /128) matching exactly `addr`.
    pub fn host(addr: IpAddr) -> IpPrefix {
        match addr {
            IpAddr::V4(_) => IpPrefix::new(addr, 32),
            IpAddr::V6(_) => IpPrefix::new(addr, 128),
        }
    }

    /// The prefix address.
    pub fn addr(&self) -> IpAddr {
        self.addr
    }

    /// The prefix length.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// `true` for a zero-length prefix (matches everything of its family).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside this prefix. Addresses of the other
    /// family never match.
    pub fn contains(&self, addr: IpAddr) -> bool {
        match (self.addr, addr) {
            (IpAddr::V4(p), IpAddr::V4(a)) => {
                let p = u32::from(p);
                let a = u32::from(a);
                let mask = if self.len == 0 {
                    0
                } else {
                    u32::MAX << (32 - u32::from(self.len))
                };
                p & mask == a & mask
            }
            (IpAddr::V6(p), IpAddr::V6(a)) => {
                let p = u128::from(p);
                let a = u128::from(a);
                let mask = if self.len == 0 {
                    0
                } else {
                    u128::MAX << (128 - u32::from(self.len))
                };
                p & mask == a & mask
            }
            _ => false,
        }
    }
}

impl std::fmt::Display for IpPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// Parses an IPv4 address, panicking on malformed literals (test fixtures).
pub fn v4(s: &str) -> IpAddr {
    IpAddr::V4(s.parse::<Ipv4Addr>().expect("invalid IPv4 literal"))
}

/// Parses an IPv6 address, panicking on malformed literals (test fixtures).
pub fn v6(s: &str) -> IpAddr {
    IpAddr::V6(s.parse::<Ipv6Addr>().expect("invalid IPv6 literal"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_of() {
        assert_eq!(Family::of(v4("192.0.2.1")), Family::V4);
        assert_eq!(Family::of(v6("2001:db8::1")), Family::V6);
        assert_eq!(Family::V4.other(), Family::V6);
        assert_eq!(Family::V6.label(), "IPv6");
    }

    #[test]
    fn family_json_and_strip() {
        use lazyeye_json::{FromJson, Json, ToJson};
        assert_eq!(Family::V6.to_json(), Json::Str("v6".into()));
        assert_eq!(Family::from_json(&Json::Str("v4".into())), Ok(Family::V4));
        assert!(Family::from_json(&Json::Str("V6".into())).is_err());
        let cells = [Some(Family::V6), None, Some(Family::V4)];
        assert_eq!(strip::render(&cells), "6x4");
        let parsed: Vec<Option<Family>> = strip::from_json(&Json::Str("6x4".into())).unwrap();
        assert_eq!(parsed, cells);
        assert_eq!(strip::render(&[Family::V4, Family::V6]), "46");
        assert!(strip::from_json::<Family>(&Json::Str("6x".into())).is_err());
        assert!(strip::from_json::<Family>(&Json::Null).is_err());
    }

    #[test]
    fn v4_prefix_contains() {
        let p = IpPrefix::new(v4("192.0.2.0"), 24);
        assert!(p.contains(v4("192.0.2.17")));
        assert!(!p.contains(v4("192.0.3.1")));
        assert!(!p.contains(v6("2001:db8::1")), "cross-family never matches");
    }

    #[test]
    fn v6_prefix_contains() {
        let p = IpPrefix::new(v6("2001:db8::"), 32);
        assert!(p.contains(v6("2001:db8:1234::9")));
        assert!(!p.contains(v6("2001:db9::1")));
    }

    #[test]
    fn zero_length_matches_family() {
        let p = IpPrefix::new(v4("0.0.0.0"), 0);
        assert!(p.contains(v4("255.255.255.255")));
        assert!(!p.contains(v6("::1")));
    }

    #[test]
    fn host_prefix_is_exact() {
        let p = IpPrefix::host(v6("2001:db8::5"));
        assert_eq!(p.len(), 128);
        assert!(p.contains(v6("2001:db8::5")));
        assert!(!p.contains(v6("2001:db8::6")));
    }

    #[test]
    fn len_is_clamped() {
        let p = IpPrefix::new(v4("10.0.0.0"), 99);
        assert_eq!(p.len(), 32);
    }
}
