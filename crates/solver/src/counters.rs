//! The counter registry. Every statistics record in the workspace is a
//! plain struct of counters declared once through [`crate::counters!`], which
//! generates field-wise `merge` (add), `since` (saturating subtract) and
//! `fields` (name/value pairs in declaration order). Accumulating,
//! differencing and reporting counters therefore never re-list a field by
//! hand: a new counter is one declaration plus its increment site.

use std::time::Duration;

/// A value a [`crate::counters!`] struct can hold: a `u64` count, a [`Duration`],
/// or another counter struct (whose fields are reported flattened).
pub trait Counter: Copy {
    /// Adds `other` into `self`.
    fn merge(&mut self, other: &Self);
    /// `self − earlier`, saturating at zero.
    fn since(&self, earlier: &Self) -> Self;
    /// Reports `self` to `out` as name/value pairs under `name`.
    fn visit(&self, name: &'static str, out: &mut dyn FnMut(&'static str, u64));
    /// A value with every counter nonzero, numbered from `*next` on (for
    /// the registry's generic tests, see [`check_merge_and_since`]).
    #[doc(hidden)]
    fn sample(next: &mut u64) -> Self;
}

/// Every counter of `value` as a name/value pair, in declaration order.
pub fn fields<T: Counter>(value: &T) -> Vec<(&'static str, u64)> {
    let mut fields = Vec::new();
    value.visit("", &mut |name, count| fields.push((name, count)));
    fields
}

/// The registry's generic test, shared by every counter struct's test
/// module so a new counter is covered without editing any test: two
/// samples with every field nonzero and uniquely named, `merge` adds each
/// field, and `since` gives back what was merged.
#[doc(hidden)]
pub fn check_merge_and_since<T: Counter + PartialEq + std::fmt::Debug>() {
    let a = T::sample(&mut 1);
    let b = T::sample(&mut 1_000);
    let mut sum = a;
    sum.merge(&b);
    let (a_fields, b_fields, sum_fields) = (fields(&a), fields(&b), fields(&sum));
    let mut names: Vec<&str> = a_fields.iter().map(|(name, _)| *name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), a_fields.len(), "field names must be unique");
    for ((name, x), ((_, y), (_, s))) in a_fields.iter().zip(b_fields.iter().zip(&sum_fields)) {
        assert!(*x > 0 && *y > 0, "{name} must be nonzero in both samples");
        assert_eq!(*s, x + y, "merge must add {name}");
    }
    assert_eq!(sum.since(&a), b, "since must give back the merged value");
}

impl Counter for u64 {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }

    fn since(&self, earlier: &Self) -> Self {
        self.saturating_sub(*earlier)
    }

    fn visit(&self, name: &'static str, out: &mut dyn FnMut(&'static str, u64)) {
        out(name, *self);
    }

    fn sample(next: &mut u64) -> Self {
        *next += 1;
        *next
    }
}

/// Durations are reported in whole milliseconds.
impl Counter for Duration {
    fn merge(&mut self, other: &Self) {
        *self += *other;
    }

    fn since(&self, earlier: &Self) -> Self {
        self.saturating_sub(*earlier)
    }

    fn visit(&self, name: &'static str, out: &mut dyn FnMut(&'static str, u64)) {
        out(name, self.as_millis() as u64);
    }

    fn sample(next: &mut u64) -> Self {
        Duration::from_millis(u64::sample(next))
    }
}

/// Declares a counter struct: `pub` fields of [`Counter`] types, each with
/// its doc comment. Generates the struct (with `Debug`, `Clone`, `Copy`,
/// `Default`, `PartialEq`, `Eq`), inherent `merge`, `since` and `fields`
/// methods, and a [`Counter`] impl so the struct can nest in another one.
///
/// ```
/// folic::counters! {
///     /// Work done by a toy engine.
///     pub struct Toy {
///         /// Steps taken.
///         pub steps: u64,
///         /// Nested engine's counters, reported flattened.
///         pub inner: folic::SolverStats,
///     }
/// }
/// let mut total = Toy::default();
/// total.merge(&Toy { steps: 2, ..Toy::default() });
/// assert_eq!(total.fields()[0], ("steps", 2));
/// assert_eq!(total.since(&total), Toy::default());
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl $name {
            /// Adds every counter of `other` into this record.
            pub fn merge(&mut self, other: &$name) {
                $($crate::counters::Counter::merge(&mut self.$field, &other.$field);)*
            }

            /// What was counted since `earlier` was read: the field-wise
            /// saturating difference `self − earlier`.
            pub fn since(&self, earlier: &$name) -> $name {
                $name {
                    $($field: $crate::counters::Counter::since(&self.$field, &earlier.$field),)*
                }
            }

            /// Every counter as a name/value pair, in declaration order
            /// (nested records flattened, durations in whole milliseconds).
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                $crate::counters::fields(self)
            }
        }

        impl $crate::counters::Counter for $name {
            fn merge(&mut self, other: &Self) {
                $name::merge(self, other)
            }

            fn since(&self, earlier: &Self) -> Self {
                $name::since(self, earlier)
            }

            fn visit(&self, _name: &'static str, out: &mut dyn FnMut(&'static str, u64)) {
                $($crate::counters::Counter::visit(&self.$field, stringify!($field), out);)*
            }

            fn sample(next: &mut u64) -> Self {
                $name {
                    $($field: <$ty as $crate::counters::Counter>::sample(next),)*
                }
            }
        }
    };
}
