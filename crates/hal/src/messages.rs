//! The `messages!` macro: typed message enums over the untyped wire.
//!
//! HAL programs are untyped but *statically type-checked*: the compiler
//! infers types and emits marshalling code. In Rust the natural analog is
//! an enum per protocol whose variants map to selectors, with generated
//! `encode`/`take` — that is what [`crate::messages!`] expands to.

/// Define a typed message enum with per-variant selectors.
///
/// Each variant may carry an optional destination-protocol annotation,
/// `=> [DestProto, ...]`, declaring which protocols its handler may
/// send to. The annotations compile into the [`SENDS`] table and the
/// protocol's [`DECL`], which the static lint pass (`hal-lint`, run by
/// the bench bins under `--lint`) walks to find unhandled selectors,
/// dead behaviors, and wait-for cycles — without running the program.
/// Un-annotated variants declare an empty send set (a sink).
///
/// [`SENDS`]: crate::ProtocolDecl::sends
/// [`DECL`]: crate::ProtocolDecl
///
/// ```
/// use hal::messages;
/// use hal_kernel::MailAddr;
///
/// messages! {
///     /// The fib protocol.
///     pub enum FibMsg {
///         /// Compute fib(n): forks two children of the same protocol,
///         /// then replies to the customer.
///         Compute { n: i64 } = 0 => [FibMsg],
///         /// A subresult (sink: handled without further sends).
///         Sub { v: i64 } = 1,
///     }
/// }
///
/// let (sel, args) = FibMsg::Compute { n: 30 }.encode();
/// assert_eq!(sel, 0);
/// let msg = hal_kernel::Msg::new(sel, args);
/// match FibMsg::take(msg) {
///     FibMsg::Compute { n } => assert_eq!(n, 30),
///     _ => unreachable!(),
/// }
/// assert_eq!(FibMsg::SENDS[0], ("Compute", &["FibMsg"][..]));
/// assert_eq!(FibMsg::DECL.name, "FibMsg");
/// ```
#[macro_export]
macro_rules! messages {
    (
        $(#[$m:meta])*
        $v:vis enum $name:ident {
            $(
                $(#[$vm:meta])*
                $variant:ident { $( $f:ident : $t:ty ),* $(,)? } = $sel:expr
                    $(=> [ $( $dest:ident ),* $(,)? ])?
            ),* $(,)?
        }
    ) => {
        $(#[$m])*
        #[derive(Debug, Clone, PartialEq)]
        #[allow(missing_docs)] // variant fields mirror the protocol args
        $v enum $name {
            $(
                $(#[$vm])*
                $variant { $( $f : $t ),* }
            ),*
        }

        impl $name {
            /// The protocol's tag table: `(variant name, selector)` for
            /// every variant, in declaration order. The protocol
            /// checker's static pass verifies tags are unique and dense.
            pub const TAGS: &'static [(&'static str, $crate::Selector)] =
                &[ $( (stringify!($variant), $sel) ),* ];

            /// The protocol's declared message-flow edges: for every
            /// variant (declaration order, parallel to [`Self::TAGS`]),
            /// the destination protocols its handler may send to — the
            /// variant's `=> [Dest, ...]` annotation, or empty when
            /// un-annotated (a sink). Consumed by the static lint pass.
            pub const SENDS: &'static [(&'static str, &'static [&'static str])] =
                &[ $( (stringify!($variant), &[ $( $( stringify!($dest) ),* )? ]) ),* ];

            /// The protocol declaration handed to the static lint pass
            /// (`out::note_protocol(&P::DECL)` in the bench bins).
            pub const DECL: $crate::ProtocolDecl = $crate::ProtocolDecl {
                name: stringify!($name),
                tags: Self::TAGS,
                sends: Self::SENDS,
            };

            /// The wire selector of this message.
            #[allow(unused_variables)]
            pub fn selector(&self) -> $crate::Selector {
                match self {
                    $( Self::$variant { .. } => $sel ),*
                }
            }

            /// Marshal into `(selector, args)` for the kernel send path.
            #[allow(clippy::vec_init_then_push)]
            pub fn encode(self) -> ($crate::Selector, ::std::vec::Vec<$crate::Value>) {
                match self {
                    $(
                        Self::$variant { $( $f ),* } => {
                            #[allow(unused_mut)]
                            let mut args = ::std::vec::Vec::new();
                            $( args.push($crate::value::IntoValue::into_value($f)); )*
                            ($sel, args)
                        }
                    ),*
                }
            }

            /// Unmarshal by *consuming* a received message: field values
            /// are moved out of the args vector, never cloned. This is
            /// the right call in `Behavior::dispatch`, which owns its
            /// `Msg` — on the compiler fast path (§6.3) the message is
            /// dispatched inline on the sender's stack and a clone here
            /// would be the only heap traffic of the whole send.
            ///
            /// # Panics
            /// Panics on unknown selectors or arity/type mismatches —
            /// marshalling bugs must not be silent.
            pub fn take(msg: $crate::Msg) -> Self {
                match msg.selector {
                    $(
                        $sel => {
                            #[allow(unused_mut, unused_variables)]
                            let mut it = msg.args.into_iter();
                            Self::$variant {
                                $(
                                    $f: <$t as $crate::value::FromValue>::from_value(
                                        it.next().unwrap_or_else(|| panic!(
                                            "arity mismatch decoding {}::{}",
                                            stringify!($name), stringify!($variant)
                                        ))
                                    )
                                ),*
                            }
                        }
                    ),*
                    other => panic!(
                        "unknown selector {other} for {}",
                        stringify!($name)
                    ),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use hal_am::Bytes;
    use hal_kernel::{DescriptorId, MailAddr, Msg};

    messages! {
        /// Test protocol.
        pub enum TestMsg {
            /// Empty variant; its handler forwards into both protocols.
            Ping {} = 0 => [TestMsg, OtherMsg],
            /// Mixed fields.
            Work { n: i64, who: MailAddr, scale: f64 } = 1,
            /// Bulk payload (trailing comma in the annotation list).
            Blob { data: Bytes } = 2 => [OtherMsg,],
        }
    }

    // Referenced only by `TestMsg`'s annotations and the SENDS test.
    #[allow(dead_code)]
    mod other {
        messages! {
            /// Second protocol, referenced by `TestMsg`'s annotations.
            pub enum OtherMsg {
                /// Sink.
                Done { v: i64 } = 0,
            }
        }
    }
    use other::OtherMsg;

    #[test]
    fn encode_take_roundtrip() {
        let who = MailAddr::ordinary(2, DescriptorId(7));
        let m = TestMsg::Work {
            n: 5,
            who,
            scale: 0.5,
        };
        let (sel, args) = m.clone().encode();
        assert_eq!(sel, 1);
        assert_eq!(TestMsg::take(Msg::new(sel, args)), m);
    }

    #[test]
    fn take_moves_fields_out() {
        let data = Bytes::from(vec![1u8, 2, 3]);
        let (sel, args) = TestMsg::Blob { data: data.clone() }.encode();
        match TestMsg::take(Msg::new(sel, args)) {
            TestMsg::Blob { data: d } => assert_eq!(d, data),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn empty_variant() {
        let (sel, args) = TestMsg::Ping {}.encode();
        assert_eq!(sel, 0);
        assert!(args.is_empty());
        assert_eq!(TestMsg::take(Msg::new(0, vec![])), TestMsg::Ping {});
    }

    #[test]
    fn tag_table_is_dense_and_in_declaration_order() {
        assert_eq!(
            TestMsg::TAGS,
            &[("Ping", 0), ("Work", 1), ("Blob", 2)]
        );
    }

    #[test]
    fn sends_table_mirrors_annotations() {
        assert_eq!(
            TestMsg::SENDS,
            &[
                ("Ping", &["TestMsg", "OtherMsg"][..]),
                ("Work", &[][..]),
                ("Blob", &["OtherMsg"][..]),
            ]
        );
        // Un-annotated protocols declare all-sink sends.
        assert_eq!(OtherMsg::SENDS, &[("Done", &[][..])]);
    }

    #[test]
    fn decl_bundles_name_tags_and_sends() {
        assert_eq!(TestMsg::DECL.name, "TestMsg");
        assert_eq!(TestMsg::DECL.tags, TestMsg::TAGS);
        assert_eq!(TestMsg::DECL.sends, TestMsg::SENDS);
    }

    #[test]
    fn selector_reported_without_encoding() {
        assert_eq!(TestMsg::Ping {}.selector(), 0);
        assert_eq!(
            TestMsg::Blob {
                data: Bytes::new()
            }
            .selector(),
            2
        );
    }

    #[test]
    #[should_panic(expected = "unknown selector")]
    fn unknown_selector_panics() {
        TestMsg::take(Msg::new(99, vec![]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        TestMsg::take(Msg::new(1, vec![]));
    }
}
