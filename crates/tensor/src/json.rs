//! The workspace's one JSON: a [`Value`] tree, a parser, compact and
//! pretty writers, and the [`ToJson`]/[`FromJson`] pair the serialised
//! types implement (most through [`json_struct!`](crate::json_struct)).
//!
//! A number keeps its literal text and is parsed by the typed reader that
//! consumes it, so a `u64::MAX` seed stays exact and an `f32` is parsed as
//! an `f32` instead of being rounded through `f64` first. Non-finite floats
//! write as `null` and `null` reads back as NaN. Objects keep insertion
//! order, so output is deterministic; on a duplicate key the last member
//! wins. The spelling is `serde_json`'s (unit enums as their variant name,
//! structs as objects, tuples as arrays, `None` as `null`), so files written
//! before this module existed still load.

use std::fmt::{self, Write as _};

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as the text it was (or will be) spelled with.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: members in insertion order.
    Obj(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member `key` of an object (the last one, if the key repeats).
    #[inline]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value read as a `T`.
    pub fn to<T: FromJson>(&self) -> Result<T, Error> {
        T::from_json(self)
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Num(_) => "a number",
            Value::Str(_) => "a string",
            Value::Arr(_) => "an array",
            Value::Obj(_) => "an object",
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: Option<usize>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(text) => f.write_str(text),
            Value::Str(s) => write_string(f, s),
            Value::Arr(items) => write_seq(f, depth, ['[', ']'], items, |f, v, d| v.write(f, d)),
            Value::Obj(members) => write_seq(f, depth, ['{', '}'], members, |f, (k, v), d| {
                write_string(f, k)?;
                f.write_str(if d.is_some() { ": " } else { ":" })?;
                v.write(f, d)
            }),
        }
    }
}

/// `value[key]`: the member, or `null` when there is none.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `{}` writes the compact form, `{:#}` the two-space-indented one.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

/// `depth` is the indentation level of the pretty form, `None` for compact.
fn write_seq<T>(
    f: &mut fmt::Formatter<'_>,
    depth: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    mut each: impl FnMut(&mut fmt::Formatter<'_>, &T, Option<usize>) -> fmt::Result,
) -> fmt::Result {
    let newline = |f: &mut fmt::Formatter<'_>, depth: Option<usize>| match depth {
        Some(d) => write!(f, "\n{:width$}", "", width = 2 * d),
        None => Ok(()),
    };
    let inner = depth.map(|d| d + 1);
    f.write_char(open)?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_char(',')?;
        }
        newline(f, inner)?;
        each(f, item, inner)?;
    }
    if !items.is_empty() {
        newline(f, depth)?;
    }
    f.write_char(close)
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// What went wrong, and under which key path (`train.workers`, `curve[2].epoch`).
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    path: String,
    msg: String,
}

impl Error {
    /// An error with no location yet.
    pub fn new(msg: impl Into<String>) -> Self {
        Error { path: String::new(), msg: msg.into() }
    }

    /// This error, found under `key` (a member name or `[index]`) of the
    /// value one level up.
    pub fn within(mut self, key: &str) -> Self {
        let dot = if self.path.is_empty() || self.path.starts_with('[') { "" } else { "." };
        self.path = format!("{key}{dot}{}", self.path);
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.msg)
        } else {
            write!(f, "{}: {}", self.path, self.msg)
        }
    }
}

impl std::error::Error for Error {}

fn mismatch(expected: &str, got: &Value) -> Error {
    Error::new(format!("expected {expected}, got {}", got.kind()))
}

/// Deepest nesting [`parse`] accepts (documents come from outside).
const MAX_DEPTH: usize = 128;

/// Parses one JSON document; anything but whitespace after it is an error.
/// Errors carry the line and column they were found at.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, at: 0 };
    let value = p.value(0)?;
    p.skip_whitespace();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.error("trailing characters")),
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.at += usize::from(hit);
        hit
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn error(&self, msg: &str) -> Error {
        let (mut line, mut column) = (1, 1);
        for &b in self.text.as_bytes().iter().take(self.at) {
            (line, column) = if b == b'\n' { (line + 1, 1) } else { (line, column + 1) };
        }
        Error::new(format!("{msg} at line {line} column {column}"))
    }

    fn slice(&self, from: usize, to: usize) -> Result<&'a str, Error> {
        self.text.get(from..to).ok_or_else(|| self.error("unexpected end of input"))
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => self.sequence(b']', |p| p.value(depth + 1)).map(Value::Arr),
            Some(b'{') => self
                .sequence(b'}', |p| {
                    p.skip_whitespace();
                    let key = p.string()?;
                    p.skip_whitespace();
                    if !p.eat(b':') {
                        return Err(p.error("expected ':'"));
                    }
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Obj),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// The comma-separated items between the bracket at `self.at` and `close`.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_whitespace();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or a closing bracket"));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.text.get(self.at..self.at + word.len()) != Some(word) {
            return Err(self.error("unexpected character"));
        }
        self.at += word.len();
        Ok(value)
    }

    fn digits(&mut self) -> Result<(), Error> {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.at == start {
            return Err(self.error("expected a digit"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.at;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _signed = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Value::Num(self.slice(start, self.at)?.to_string()))
    }

    fn string(&mut self) -> Result<String, Error> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Runs end at ASCII bytes only, so they are whole characters.
            let start = self.at;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1F)) {
                self.at += 1;
            }
            out.push_str(self.slice(start, self.at)?);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in a string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, Error> {
        let code = self.peek().ok_or_else(|| self.error("unterminated string"))?;
        self.at += 1;
        Ok(match code {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut unit = self.hex4()?;
                if (0xD800..0xDC00).contains(&unit) && self.eat(b'\\') && self.eat(b'u') {
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        unit = 0x1_0000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                // A surrogate that found no partner is not a character.
                char::from_u32(unit).ok_or_else(|| self.error("unpaired surrogate escape"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.slice(self.at, self.at + 4)?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.error("expected four hex digits"));
        }
        self.at += 4;
        u32::from_str_radix(digits, 16).map_err(|_| self.error("expected four hex digits"))
    }
}

/// A type that writes itself as JSON.
pub trait ToJson {
    /// The document for `self`.
    fn to_json(&self) -> Value;
}

/// A type that reads itself from JSON.
pub trait FromJson: Sized {
    /// `Self` from `v`, or why not.
    fn from_json(v: &Value) -> Result<Self, Error>;
}

/// `value` as compact JSON.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// `value` as indented JSON.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    format!("{:#}", value.to_json())
}

/// Parses `text` and reads a `T` from it.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&parse(text)?)
}

/// Member `key` of object `v` as a `T`; when absent, `default` or an error.
/// Either way the error names the key. ([`json_struct!`](crate::json_struct)
/// expands to calls of this.)
pub fn field<T: FromJson>(v: &Value, key: &str, default: Option<T>) -> Result<T, Error> {
    match (v.get(key), default) {
        (Some(member), _) => T::from_json(member).map_err(|e| e.within(key)),
        (None, Some(default)) => Ok(default),
        (None, None) => Err(Error::new("missing key").within(key)),
    }
}

fn number<T: std::str::FromStr>(v: &Value, expected: &str) -> Result<T, Error> {
    match v {
        Value::Num(text) => {
            text.parse().map_err(|_| Error::new(format!("expected {expected}, got {text}")))
        }
        other => Err(mismatch(expected, other)),
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(self.to_string())
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, Error> {
                number(v, concat!("an integer that fits ", stringify!($t)))
            }
        }
    )*};
}
json_int!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! json_float {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                // `{:?}` is the shortest text that parses back to these bits.
                if self.is_finite() { Value::Num(format!("{self:?}")) } else { Value::Null }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, Error> {
                if *v == Value::Null { Ok(<$t>::NAN) } else { number(v, "a number") }
            }
        }
    )*};
}
json_float!(f32, f64);

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(mismatch("a boolean", other)),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(mismatch("a string", other)),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::from_json(item).map_err(|e| e.within(&format!("[{i}]"))))
                .collect(),
            other => Err(mismatch("an array", other)),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        if *v == Value::Null {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

// Tuples are arrays of exactly their arity. Each letter names both an
// element's type and, in its own namespace, the binding that holds it.
macro_rules! json_tuple {
    ($($T:ident)+) => {
        #[allow(non_snake_case)]
        impl<$($T: ToJson),+> ToJson for ($($T,)+) {
            fn to_json(&self) -> Value {
                let ($($T,)+) = self;
                Value::Arr(vec![$($T.to_json()),+])
            }
        }
        #[allow(non_snake_case)]
        impl<$($T: FromJson),+> FromJson for ($($T,)+) {
            fn from_json(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Arr(items) => match items.as_slice() {
                        [$($T),+] => Ok(($($T::from_json($T)?,)+)),
                        _ => Err(Error::new(format!(
                            "expected an array of {}, got one of {}",
                            [$(stringify!($T)),+].len(),
                            items.len()
                        ))),
                    },
                    other => Err(mismatch("an array", other)),
                }
            }
        }
    };
}
json_tuple!(A B);
json_tuple!(A B C);
json_tuple!(A B C D);
json_tuple!(A B C D E);
json_tuple!(A B C D E F);

/// Implements [`ToJson`](crate::json::ToJson) and
/// [`FromJson`](crate::json::FromJson) for a struct with named fields: an
/// object with one member per listed field, in that order. `field = expr`
/// makes the member optional on read, `expr` standing in when it is absent;
/// any other absent or ill-typed member is an error naming its key, and
/// members the list does not name are ignored.
///
/// ```
/// #[derive(Debug)]
/// struct Link {
///     gbps: f64,
///     latency_us: f64,
/// }
/// dgs_tensor::json_struct!(Link { gbps, latency_us = 50.0 });
///
/// let link: Link = dgs_tensor::json::from_str(r#"{"gbps": 10, "mtu": 9000}"#).unwrap();
/// assert_eq!((link.gbps, link.latency_us), (10.0, 50.0));
/// assert_eq!(dgs_tensor::json::to_string(&link), r#"{"gbps":10.0,"latency_us":50.0}"#);
/// let err = dgs_tensor::json::from_str::<Link>(r#"{"gbps": "fast"}"#).unwrap_err();
/// assert_eq!(err.to_string(), "gbps: expected a number, got a string");
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident $(= $default:expr)?),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![$((
                    stringify!($field).to_string(),
                    $crate::json::ToJson::to_json(&self.$field),
                )),+])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::Error> {
                if !matches!(v, $crate::json::Value::Obj(_)) {
                    return Err($crate::json::Error::new("expected an object"));
                }
                Ok(Self {$(
                    $field: $crate::json::field(
                        v,
                        stringify!($field),
                        $crate::json_struct!(@default $($default)?),
                    )?,
                )+})
            }
        }
    };
    (@default) => { None };
    (@default $default:expr) => { Some($default) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::torture_cases;
    use crate::rng::cases;

    fn round_trip<T: ToJson + FromJson>(value: &T) -> T {
        from_str(&to_string(value)).unwrap()
    }

    #[derive(Debug, PartialEq)]
    struct Inner {
        workers: usize,
        ratio: f64,
    }
    json_struct!(Inner { workers, ratio = 0.05 });

    #[derive(Debug, PartialEq)]
    struct Outer {
        name: String,
        train: Inner,
        curve: Vec<Inner>,
    }
    json_struct!(Outer { name, train, curve });

    /// A document with every kind of value in it; its first three members
    /// are an `Outer`.
    fn sample() -> Value {
        let outer = Outer {
            name: "tab\t \"quoted\" back\\slash é 🦀".into(),
            train: Inner { workers: 4, ratio: 0.01 },
            curve: vec![Inner { workers: 1, ratio: 1e-9 }, Inner { workers: 2, ratio: -2.5e300 }],
        };
        let Value::Obj(mut members) = outer.to_json() else { unreachable!() };
        let flags = (true, false, None::<u8>, u64::MAX, String::new());
        members.push(("flags".into(), flags.to_json()));
        members.push(("empty".into(), Value::Obj(vec![])));
        members.push(("none".into(), Vec::<u8>::new().to_json()));
        Value::Obj(members)
    }

    #[test]
    fn integers_are_exact_at_their_limits() {
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
        assert_eq!(round_trip(&u64::MAX), u64::MAX);
        assert_eq!(round_trip(&i64::MIN), i64::MIN);
        assert_eq!(round_trip(&usize::MAX), usize::MAX);
        // One past the end is an error, not a wrapped or rounded value.
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<usize>("4.0").is_err());
        assert!(from_str::<usize>("\"4\"").is_err());
    }

    #[test]
    fn floats_round_trip_bit_exact_and_non_finite_ones_as_null() {
        let mut palette: Vec<f32> = torture_cases().concat();
        palette.extend([f32::MAX, f32::MIN, f32::MIN_POSITIVE, f32::EPSILON, 0.1, 16_777_217.0]);
        // One-ulp neighbours of everything above, subnormals included.
        let neighbours: Vec<f32> = palette
            .iter()
            .flat_map(|v| [v.to_bits().wrapping_add(1), v.to_bits().wrapping_sub(1)])
            .map(f32::from_bits)
            .collect();
        palette.extend(neighbours);
        for v in palette {
            let text = to_string(&v);
            let back: f32 = from_str(&text).unwrap();
            if v.is_finite() {
                assert_eq!(back.to_bits(), v.to_bits(), "{v:?} went through {text}");
            } else {
                assert_eq!(text, "null");
                assert!(back.is_nan());
            }
        }
        cases(256, |rng| {
            let wide = f64::from_bits(rng.next_u64());
            if wide.is_finite() {
                assert_eq!(round_trip(&wide).to_bits(), wide.to_bits());
            }
        });
        for v in [f64::MAX, f64::MIN_POSITIVE, f64::from_bits(1), -0.0, 0.1 + 0.2, 1e21, 1e-7] {
            assert_eq!(round_trip(&v).to_bits(), v.to_bits());
        }
        assert_eq!(to_string(&f64::NEG_INFINITY), "null");
        // Any JSON number reads as a float; an `f32` is parsed as one, not
        // rounded from the nearest `f64` (this literal is where they differ).
        assert_eq!(from_str::<f64>("5").unwrap(), 5.0);
        assert_eq!(from_str::<f32>("-1E+2").unwrap(), -100.0);
        let tie = "1.00000029802322387695312500001";
        assert_eq!(from_str::<f32>(tie).unwrap(), f32::from_bits(0x3F80_0003));
        assert_eq!(from_str::<f64>(tie).unwrap() as f32, f32::from_bits(0x3F80_0002));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        for s in ["", "plain", "\"\\/", "é 🦀 \u{FFFF}", "\u{7f}", every_control.as_str()] {
            let text = to_string(s);
            assert!(text.bytes().all(|b| b >= 0x20), "controls are escaped: {text}");
            assert_eq!(from_str::<String>(&text).unwrap(), s);
        }
        assert_eq!(to_string("a\nb\u{1}"), r#""a\nb\u0001""#);
        let escaped = r#""\" \\ \/ \b \f \n \r \t \u00E9 🦀 \uD83E\uDD80""#;
        assert_eq!(from_str::<String>(escaped).unwrap(), "\" \\ / \u{8} \u{c} \n \r \t é 🦀 🦀");
        for bad in [
            r#""\uD83E""#,       // high surrogate alone
            r#""\uD83EA""#,      // high surrogate, then no escape
            r#""\uD83E\u0041""#, // high surrogate, then not a low one
            r#""\uDD80""#,       // low surrogate alone
            r#""\u12""#,
            r#""\u+123""#,
            r#""\q""#,
            "\"raw\nnewline\"",
            "\"unterminated",
            "\"unterminated\\",
        ] {
            assert!(parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn malformed_documents_are_errors_with_a_position() {
        for bad in [
            "",
            " ",
            "nul",
            "tru",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "{\"a\":1,}",
            "01",
            "1.",
            ".5",
            "-",
            "1e",
            "+1",
            "0x10",
            "NaN",
            "[",
            "{",
            "]",
            "1 2",
            "{} x",
            "\u{feff}1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let err = parse("{\n  \"a\": [1, 2,\n  ?]\n}").unwrap_err();
        assert_eq!(err.to_string(), "unexpected character at line 3 column 3");
        let err = parse("[1] trailing").unwrap_err();
        assert_eq!(err.to_string(), "trailing characters at line 1 column 5");
        // The depth cap: 128 levels parse, more is an error (not a stack
        // overflow, however long the run of brackets).
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 2)).unwrap_err().to_string().contains("too deep"));
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn duplicate_keys_last_wins_and_unknown_keys_are_ignored() {
        let doc = parse(r#"{"workers": 1, "retired": [1, {"x": null}], "workers": 8}"#).unwrap();
        assert_eq!(doc["workers"].to::<usize>().unwrap(), 8);
        assert_eq!(doc["absent"], Value::Null);
        assert_eq!(doc["workers"]["not an object"], Value::Null);
        assert_eq!(doc.to::<Inner>().unwrap(), Inner { workers: 8, ratio: 0.05 });
    }

    #[test]
    fn pretty_and_compact_forms_parse_to_the_same_tree() {
        let doc = sample();
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(parse(&format!("{doc:#}")).unwrap(), doc);
        // The pretty form is `serde_json`'s: two spaces, `": "`, `[]`/`{}`.
        let small = r#"{"a":[1,{"b":null}],"c":{},"d":[]}"#;
        assert_eq!(parse(small).unwrap().to_string(), small);
        assert_eq!(
            format!("{:#}", parse(small).unwrap()),
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": null\n    }\n  ],\n  \"c\": {},\n  \"d\": []\n}"
        );
    }

    #[test]
    fn tuples_options_and_vectors() {
        let row = (3usize, "DGS".to_string(), 0.5f64, -0.25f32, Some(7u64), None::<bool>);
        assert_eq!(to_string(&row), r#"[3,"DGS",0.5,-0.25,7,null]"#);
        assert_eq!(round_trip(&row), row);
        assert_eq!(round_trip(&vec![(1u8, true), (2, false)]), vec![(1, true), (2, false)]);
        let err = from_str::<(u8, u8)>("[1, 2, 3]").unwrap_err();
        assert_eq!(err.to_string(), "expected an array of 2, got one of 3");
        assert!(from_str::<Vec<u8>>("{}").is_err());
        assert!(from_str::<bool>("0").is_err());
    }

    #[test]
    fn struct_errors_name_the_key_path() {
        let Value::Obj(members) = sample() else { unreachable!() };
        let outer = Value::Obj(members.into_iter().take(3).collect());
        assert_eq!(outer.to::<Outer>().unwrap().to_json(), outer);
        let good = outer.to_string();
        let read = |text: String| from_str::<Outer>(&text).unwrap_err().to_string();
        assert_eq!(
            read(good.replace("\"workers\":4", "\"workers\":\"4\"")),
            "train.workers: expected an integer that fits usize, got a string"
        );
        assert_eq!(read(good.replace("\"workers\":4,", "")), "train.workers: missing key");
        assert_eq!(
            read(good.replace("\"workers\":2", "\"workers\":-2")),
            "curve[1].workers: expected an integer that fits usize, got -2"
        );
        assert_eq!(read("[]".into()), "expected an object");
        assert_eq!(
            read(good.replace("{\"workers\":4,\"ratio\":0.01}", "3")),
            "train: expected an object"
        );
    }

    #[test]
    fn mutated_documents_never_panic() {
        const SYNTAX: &[u8] = b"\"\\{}[],:-+.eEu0 \n";
        let docs = [sample().to_string(), format!("{:#}", sample())];
        cases(4000, |rng| {
            let mut bytes = docs[rng.below(2)].clone().into_bytes();
            for _ in 0..rng.range(1..4) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.below(bytes.len());
                match rng.below(4) {
                    0 => bytes[at] = rng.next_u64() as u8,
                    1 => bytes.insert(at, SYNTAX[rng.below(SYNTAX.len())]),
                    2 => drop(bytes.remove(at)),
                    _ => bytes.truncate(at + 1),
                }
            }
            // Whatever comes back is an error or a tree that writes and
            // reads back as itself, and the typed reader copes with it too.
            if let Ok(doc) = parse(&String::from_utf8_lossy(&bytes)) {
                assert_eq!(parse(&doc.to_string()).unwrap(), doc);
                assert_eq!(parse(&format!("{doc:#}")).unwrap(), doc);
                let _ = doc.to::<Outer>();
            }
        });
    }
}
