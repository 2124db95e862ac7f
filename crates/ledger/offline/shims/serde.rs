//! Offline stand-in for `serde`: marker traits every type satisfies, so
//! `#[derive(Serialize, Deserialize)]` bounds type-check. Nothing can
//! actually be serialized — the `serde_json` shim returns errors.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

pub mod de {
    pub trait DeserializeOwned: Sized {}
    impl<T> DeserializeOwned for T {}
}
