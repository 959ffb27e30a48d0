//! Conversions between Rust types and HAL message [`Value`]s.
//!
//! HAL is untyped on the wire; its compiler inserts marshalling code from
//! inferred types. In this reproduction the [`crate::messages!`] macro
//! plays that role, and these traits are the marshalling primitives it
//! expands to.

use hal_am::Bytes;
use hal_kernel::{GroupId, MailAddr, Value};

/// Decode a [`Value`] into a concrete Rust type (panics on a type
/// mismatch — the analog of a marshalling bug, which must be loud).
pub trait FromValue: Sized {
    /// Convert, panicking on mismatch.
    fn from_value(v: Value) -> Self;
}

impl FromValue for i64 {
    fn from_value(v: Value) -> Self {
        v.as_int()
    }
}
impl FromValue for f64 {
    fn from_value(v: Value) -> Self {
        v.as_float()
    }
}
impl FromValue for MailAddr {
    fn from_value(v: Value) -> Self {
        v.as_addr()
    }
}
impl FromValue for GroupId {
    fn from_value(v: Value) -> Self {
        v.as_group()
    }
}
impl FromValue for Bytes {
    fn from_value(v: Value) -> Self {
        v.into_bytes()
    }
}
impl FromValue for Value {
    fn from_value(v: Value) -> Self {
        v
    }
}
impl FromValue for bool {
    fn from_value(v: Value) -> Self {
        v.as_int() != 0
    }
}
impl FromValue for u32 {
    fn from_value(v: Value) -> Self {
        u32::try_from(v.as_int()).expect("u32 out of range")
    }
}
impl FromValue for usize {
    fn from_value(v: Value) -> Self {
        usize::try_from(v.as_int()).expect("usize out of range")
    }
}

/// Encode a Rust type as a [`Value`].
pub trait IntoValue {
    /// Convert.
    fn into_value(self) -> Value;
}

impl IntoValue for i64 {
    fn into_value(self) -> Value {
        Value::Int(self)
    }
}
impl IntoValue for f64 {
    fn into_value(self) -> Value {
        Value::Float(self)
    }
}
impl IntoValue for MailAddr {
    fn into_value(self) -> Value {
        Value::Addr(self)
    }
}
impl IntoValue for GroupId {
    fn into_value(self) -> Value {
        Value::Group(self)
    }
}
impl IntoValue for Bytes {
    fn into_value(self) -> Value {
        Value::Bytes(self)
    }
}
impl IntoValue for Value {
    fn into_value(self) -> Value {
        self
    }
}
impl IntoValue for bool {
    fn into_value(self) -> Value {
        Value::Int(self as i64)
    }
}
impl IntoValue for u32 {
    fn into_value(self) -> Value {
        Value::Int(self as i64)
    }
}
impl IntoValue for usize {
    fn into_value(self) -> Value {
        Value::Int(self as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hal_kernel::DescriptorId;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(i64::from_value(42i64.into_value()), 42);
        assert_eq!(f64::from_value(2.5f64.into_value()), 2.5);
        assert!(bool::from_value(true.into_value()));
        assert!(!bool::from_value(false.into_value()));
        assert_eq!(u32::from_value(7u32.into_value()), 7);
        assert_eq!(usize::from_value(9usize.into_value()), 9);
    }

    #[test]
    fn roundtrip_addresses() {
        let a = MailAddr::ordinary(3, DescriptorId(4));
        assert_eq!(MailAddr::from_value(a.into_value()), a);
        let g = GroupId::new(1, 2, 3, hal_kernel::Mapping::Block);
        assert_eq!(GroupId::from_value(g.into_value()), g);
    }

    #[test]
    fn roundtrip_bytes() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(Bytes::from_value(b.clone().into_value()), b);
    }

    #[test]
    #[should_panic(expected = "expected Bytes")]
    fn bytes_mismatch_panics() {
        Bytes::from_value(Value::Int(1));
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn mismatch_panics() {
        i64::from_value(Value::Float(1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn narrowing_checked() {
        u32::from_value(Value::Int(-1));
    }
}
