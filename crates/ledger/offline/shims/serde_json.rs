//! Offline stand-in for `serde_json`: every call reports an error, so
//! checkpoint/config (de)serialization is unavailable in an
//! `offline-shims` build. The ledger never touches those paths.

use std::fmt;

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is a stub in the offline-shims build")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn from_str<T>(_s: &str) -> Result<T> {
    Err(Error)
}
