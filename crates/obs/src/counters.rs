//! The one counter mechanism: a declarative table per counter family.
//!
//! Every family of monotonic engine counters (faults, pool, incremental,
//! overload, plan, integrity, and the fabric's in `wukong-net`) is
//! declared through [`counters!`](crate::counters!). Each counter is one
//! table line — its doc, its name, and its kind — and the macro
//! generates everything else from that list:
//!
//! * the relaxed-atomic storage struct (with `Default`) and one
//!   recording method per counter, named after it, that is a single
//!   relaxed `fetch_add` (`sum`) or `fetch_max` (`max`);
//! * the plain-data snapshot struct with `pub` fields, `snapshot()` and
//!   `delta()`;
//! * a [`CounterSet`] impl whose [`entries`](CounterSet::entries) and
//!   [`MEMBER`](CounterSet::MEMBER) let one report writer emit every
//!   family's JSON member.
//!
//! A family module keeps only the methods that encode a rule (one event
//! touching several counters, or a derived total).

/// How a counter combines recorded values, and how `delta` treats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A running total: records add, and `delta` subtracts.
    Sum,
    /// A high-water mark: records keep the maximum, and `delta` keeps
    /// the later value.
    Max,
}

/// One declared counter of family `C`: its name, kind and recording
/// method.
pub type Counter<C> = (&'static str, Kind, fn(&C, u64));

/// A snapshot of one counter family, written as one JSON report member.
pub trait CounterSet {
    /// The report member the family is written under (e.g. `"faults"`).
    const MEMBER: &'static str;

    /// `(name, value)` pairs in table order.
    fn entries(&self) -> Vec<(&'static str, u64)>;
}

/// Checks one family's generated code against its declared `table`,
/// panicking on the first mismatch; every family's tests call it.
///
/// It records 5 then 2 into each counter, snapshotting in between, and
/// asserts that every declared name appears exactly once in `entries()`,
/// in table order, and that `delta` subtracts `sum` counters and keeps
/// the later value of `max` counters.
pub fn check_family<C: Default, S: CounterSet>(
    table: &[Counter<C>],
    snapshot: fn(&C) -> S,
    delta: fn(&S, &S) -> S,
) {
    let c = C::default();
    table.iter().for_each(|(_, _, record)| record(&c, 5));
    let before = snapshot(&c);
    table.iter().for_each(|(_, _, record)| record(&c, 2));
    let later = snapshot(&c);
    let d = delta(&before, &later);
    let (before, later, d) = (before.entries(), later.entries(), d.entries());
    let names: Vec<_> = d.iter().map(|(name, _)| *name).collect();
    let declared: Vec<_> = table.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(names, declared, "entries() must list the table in order");
    for name in &names {
        assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
    }
    for (i, (name, kind, _)) in table.iter().enumerate() {
        let want = match kind {
            Kind::Sum => (5, 7, 2),
            Kind::Max => (5, 5, 5),
        };
        let got = (before[i].1, later[i].1, d[i].1);
        assert_eq!(got, want, "{name} ({kind:?}): before, later, delta");
    }
}

/// Declares one counter family. See the [module docs](mod@crate::counters).
///
/// ```
/// wukong_obs::counters! {
///     /// Monotonic counters of widget activity.
///     WidgetCounters => WidgetSnapshot as "widgets" {
///         /// Widgets built.
///         built: sum,
///         /// Deepest widget stack seen.
///         max_depth: max,
///     }
/// }
///
/// use wukong_obs::CounterSet;
/// let c = WidgetCounters::default();
/// c.built(2);
/// c.max_depth(7);
/// c.max_depth(3);
/// let s = c.snapshot();
/// assert_eq!((s.built, s.max_depth), (2, 7));
/// assert_eq!(s.entries(), vec![("built", 2), ("max_depth", 7)]);
/// assert_eq!(WidgetSnapshot::MEMBER, "widgets");
/// ```
#[macro_export]
macro_rules! counters {
    (@record sum, $cell:expr, $n:expr) => {
        $cell.fetch_add($n, ::std::sync::atomic::Ordering::Relaxed)
    };
    (@record max, $cell:expr, $n:expr) => {
        $cell.fetch_max($n, ::std::sync::atomic::Ordering::Relaxed)
    };
    (@delta sum, $earlier:expr, $later:expr) => {
        $later - $earlier
    };
    (@delta max, $earlier:expr, $later:expr) => {
        $later
    };
    (@kind sum) => {
        $crate::counters::Kind::Sum
    };
    (@kind max) => {
        $crate::counters::Kind::Max
    };
    (
        $(#[$doc:meta])*
        $counters:ident => $snapshot:ident as $member:literal {
            $( $(#[$cdoc:meta])* $name:ident : $kind:ident ),* $(,)?
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $counters {
            $( $name: ::std::sync::atomic::AtomicU64, )*
        }

        impl $counters {
            /// The declared table: every counter's name, kind and
            /// recording method, in declaration order.
            pub const TABLE: &'static [$crate::counters::Counter<Self>] = &[
                $( (stringify!($name), $crate::counters!(@kind $kind), Self::$name), )*
            ];

            $(
                $(#[$cdoc])*
                #[inline]
                pub fn $name(&self, n: u64) {
                    $crate::counters!(@record $kind, self.$name, n);
                }
            )*

            /// Takes a snapshot of all counters.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $( $name: self.$name.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($counters), "`].")]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snapshot {
            $( $(#[$cdoc])* pub $name: u64, )*
        }

        impl $snapshot {
            /// Difference of two snapshots (`later - self`). A `max`
            /// counter is a high-water mark, not a sum, so the later
            /// value is kept.
            pub fn delta(&self, later: &$snapshot) -> $snapshot {
                $snapshot {
                    $( $name: $crate::counters!(@delta $kind, self.$name, later.$name), )*
                }
            }
        }

        impl $crate::counters::CounterSet for $snapshot {
            const MEMBER: &'static str = $member;

            fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (stringify!($name), self.$name), )* ]
            }
        }
    };
}
