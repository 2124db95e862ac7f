//! The lock-order manifest (`audit-lock-order.toml`): declared lock
//! classes, their acquisition patterns, the one global acquisition
//! order, panic-reach entry files/barriers, and the poller scope.
//!
//! The parser is a deliberately minimal hand-rolled TOML subset —
//! `[section]`, `[[array-of-tables]]`, `key = "str" | true | false |
//! ["a", "b"]`, `#` comments — because the audit crate must stay
//! std-only and build with bare `rustc` offline (see lib.rs). Anything
//! outside that subset is a hard parse error, never silently ignored:
//! a manifest that fails to parse must fail the audit.

/// One declared mutex class.
#[derive(Debug, Clone, Default)]
pub struct LockClass {
    /// Class name used in `rank` and in diagnostics.
    pub name: String,
    /// Guarded type: methods called directly on a fresh guard resolve
    /// only against `impl <inner>` blocks (no homonym widening).
    pub inner: Option<String>,
    /// Acquisition patterns: `helper_name` or `field.method`.
    pub acquire: Vec<String>,
    /// Workspace-relative path prefixes the patterns apply in.
    pub files: Vec<String>,
    /// Blocking calls under this guard are this lock's purpose.
    pub allow_blocking: bool,
}

/// Parsed manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Global acquisition order, outermost first.
    pub rank: Vec<String>,
    /// Declared lock classes.
    pub locks: Vec<LockClass>,
    /// panic-reach: wire-path entry files.
    pub entry_files: Vec<String>,
    /// panic-reach: unwind-barrier call names.
    pub barriers: Vec<String>,
    /// Poller-thread files (strictest blocking scope).
    pub poller_files: Vec<String>,
    /// Calls exempt from the poller rule (`field.meth` / bare-name
    /// patterns) — the poll(2) wait itself lives here.
    pub poller_allow: Vec<String>,
}

/// The checked-in manifest, embedded so `check_source` (and the golden
/// fixtures) audit against exactly the order the repo declares.
pub const DEFAULT_MANIFEST: &str = include_str!("../../../audit-lock-order.toml");

/// Option/Result/collection adapter methods that forward their
/// receiver: `self.applied.get(w).ok_or(..)?.lock()` still acquires the
/// `applied` field's mutex. Receiver matching (here and in call-graph
/// type narrowing) looks through these hops to the first real receiver.
pub const ADAPTER_HOPS: &[&str] = &[
    "get", "get_mut", "ok_or", "ok_or_else", "as_ref", "as_mut", "as_deref", "unwrap", "expect",
    "map_err", "first", "last",
];

/// First chain hop that is not a forwarding adapter.
pub fn receiver_of(chain: &[String]) -> Option<&String> {
    chain.iter().find(|h| !ADAPTER_HOPS.contains(&h.as_str()))
}

impl Manifest {
    /// Position of `class` in the declared order, if declared.
    pub fn rank_of(&self, class: &str) -> Option<usize> {
        self.rank.iter().position(|c| c == class)
    }

    /// Classifies a call as a lock acquisition. `name` is the callee,
    /// `is_method` whether it was `recv.name(...)`, `chain` the
    /// receiver idents (nearest first), `path` the file being audited.
    pub fn classify(
        &self,
        name: &str,
        is_method: bool,
        chain: &[String],
        path: &str,
    ) -> Option<&LockClass> {
        self.locks.iter().find(|c| {
            c.files.iter().any(|p| crate::config::path_has_prefix(path, p))
                && c.acquire.iter().any(|pat| match pat.split_once('.') {
                    None => name == pat,
                    // The field must be the nearest *non-adapter* receiver:
                    // `self.lock()` is the blanket handler lock,
                    // `self.0.lock()` the byte queue (chain-contains would
                    // conflate them), and `slots.get(w).ok_or(..)?.lock()`
                    // still acquires the `slots` mutex.
                    Some((field, meth)) => {
                        is_method
                            && name == meth
                            && receiver_of(chain).is_some_and(|x| x == field)
                    }
                })
        })
    }

    /// Is this call exempt from the poller rule (e.g. `poller.wait`)?
    pub fn poller_allows(&self, name: &str, chain: &[String]) -> bool {
        self.poller_allow.iter().any(|pat| match pat.split_once('.') {
            None => name == pat,
            Some((field, meth)) => name == meth && chain.first().is_some_and(|x| x == field),
        })
    }

    /// Class with the given name.
    pub fn class(&self, name: &str) -> Option<&LockClass> {
        self.locks.iter().find(|c| c.name == name)
    }

    /// Is `path` a panic-reach entry file?
    pub fn is_entry_file(&self, path: &str) -> bool {
        self.entry_files.iter().any(|p| crate::config::path_has_prefix(path, p))
    }

    /// Is `path` driven by the poller thread?
    pub fn is_poller_file(&self, path: &str) -> bool {
        self.poller_files.iter().any(|p| crate::config::path_has_prefix(path, p))
    }
}

/// Parses the manifest text. Errors carry the 1-based line number.
pub fn parse(text: &str) -> Result<Manifest, String> {
    let mut m = Manifest::default();
    // Which table the next `key = value` lines belong to.
    enum Section {
        None,
        Order,
        Lock,
        PanicReach,
        Poller,
    }
    let mut section = Section::None;
    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let mut line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        // Multi-line list: keep joining until the brackets close.
        while line.contains('[')
            && !line.starts_with('[')
            && line.matches('[').count() > line.matches(']').count()
        {
            match lines.next() {
                Some((_, next)) => {
                    line.push(' ');
                    line.push_str(strip_comment(next).trim());
                }
                None => return Err(format!("line {lineno}: unterminated list")),
            }
        }
        let line = line.as_str();
        if let Some(head) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            match head.trim() {
                "lock" => {
                    m.locks.push(LockClass::default());
                    section = Section::Lock;
                }
                other => return Err(format!("line {lineno}: unknown table `[[{other}]]`")),
            }
            continue;
        }
        if let Some(head) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            section = match head.trim() {
                "order" => Section::Order,
                "panic-reach" => Section::PanicReach,
                "poller" => Section::Poller,
                other => return Err(format!("line {lineno}: unknown section `[{other}]`")),
            };
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        match (&section, key) {
            (Section::Order, "rank") => m.rank = parse_list(value, lineno)?,
            (Section::Lock, "name") => lock_mut(&mut m, lineno)?.name = parse_str(value, lineno)?,
            (Section::Lock, "inner") => {
                lock_mut(&mut m, lineno)?.inner = Some(parse_str(value, lineno)?)
            }
            (Section::Lock, "acquire") => {
                lock_mut(&mut m, lineno)?.acquire = parse_list(value, lineno)?
            }
            (Section::Lock, "files") => {
                lock_mut(&mut m, lineno)?.files = parse_list(value, lineno)?
            }
            (Section::Lock, "allow_blocking") => {
                lock_mut(&mut m, lineno)?.allow_blocking = parse_bool(value, lineno)?
            }
            (Section::PanicReach, "entries") => m.entry_files = parse_list(value, lineno)?,
            (Section::PanicReach, "barriers") => m.barriers = parse_list(value, lineno)?,
            (Section::Poller, "files") => m.poller_files = parse_list(value, lineno)?,
            (Section::Poller, "allow") => m.poller_allow = parse_list(value, lineno)?,
            _ => return Err(format!("line {lineno}: unexpected key `{key}` here")),
        }
    }
    validate(&m)?;
    Ok(m)
}

fn lock_mut(m: &mut Manifest, lineno: usize) -> Result<&mut LockClass, String> {
    m.locks.last_mut().ok_or_else(|| format!("line {lineno}: key outside any [[lock]]"))
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_str(value: &str, lineno: usize) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("line {lineno}: expected a double-quoted string, got `{value}`"))
}

fn parse_bool(value: &str, lineno: usize) -> Result<bool, String> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(format!("line {lineno}: expected true/false, got `{value}`")),
    }
}

/// Parses `["a", "b"]`, tolerating the multi-line form only via the
/// caller joining lines — in practice the manifest keeps one-line lists
/// except `rank`, so lists may also span lines using trailing commas.
fn parse_list(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| format!("line {lineno}: expected a [\"…\"] list, got `{value}`"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_str(item, lineno)?);
    }
    Ok(out)
}

fn validate(m: &Manifest) -> Result<(), String> {
    for c in &m.locks {
        if c.name.is_empty() {
            return Err("a [[lock]] is missing `name`".to_string());
        }
        if c.acquire.is_empty() {
            return Err(format!("lock `{}` has no acquire patterns", c.name));
        }
        if c.files.is_empty() {
            return Err(format!("lock `{}` has no files scope", c.name));
        }
        if m.rank_of(&c.name).is_none() {
            return Err(format!("lock `{}` is not in [order] rank", c.name));
        }
    }
    for r in &m.rank {
        if m.class(r).is_none() {
            return Err(format!("rank names undeclared lock `{r}`"));
        }
    }
    let mut seen: Vec<&str> = Vec::new();
    for r in &m.rank {
        if seen.contains(&r.as_str()) {
            return Err(format!("rank lists `{r}` twice"));
        }
        seen.push(r);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_manifest_parses_and_covers_the_named_mutexes() {
        let m = parse(DEFAULT_MANIFEST).expect("embedded manifest must parse");
        // Acceptance: every named mutex in shard.rs, runtime.rs,
        // event_loop.rs (none — poller scope instead), and edge.rs.
        for class in [
            "front",
            "shard",
            "shared-handler",
            "worker-applied",
            "recorder",
            "edge-state",
            "edge-upstream",
        ] {
            assert!(m.class(class).is_some(), "missing class {class}");
        }
        assert!(m.is_poller_file("crates/net/src/event_loop.rs"));
        assert!(m.is_entry_file("crates/net/src/codec.rs"));
        assert!(m.rank_of("front").unwrap() < m.rank_of("shard").unwrap());
        assert!(m.barriers.iter().any(|b| b == "catch_unwind"));
    }

    #[test]
    fn classify_matches_helper_and_field_patterns_in_scope_only() {
        let m = parse(DEFAULT_MANIFEST).unwrap();
        let shard = "crates/core/src/shard.rs";
        assert_eq!(m.classify("lock_front", true, &[], shard).unwrap().name, "front");
        let chain = vec!["front".to_string(), "self".to_string()];
        assert_eq!(m.classify("lock", true, &chain, shard).unwrap().name, "front");
        // Out of the class's file scope: no match.
        assert!(m.classify("lock_front", true, &[], "crates/net/src/tcp.rs").is_none());
        // Non-method call cannot match a dotted pattern.
        assert!(m.classify("lock", false, &chain, shard).is_none());
    }

    #[test]
    fn malformed_manifests_are_hard_errors() {
        assert!(parse("[oops]").is_err());
        assert!(parse("name = \"x\"").is_err());
        assert!(parse("[[lock]]\nname = \"a\"").is_err()); // no acquire/files/rank
        let dup = "[order]\nrank = [\"a\", \"a\"]\n[[lock]]\nname = \"a\"\nacquire = [\"a.lock\"]\nfiles = [\"src\"]\n";
        assert!(parse(dup).unwrap_err().contains("twice"));
    }

    #[test]
    fn comments_and_strings_interact_correctly() {
        let m = parse("[order]\nrank = [] # trailing\n").unwrap();
        assert!(m.rank.is_empty());
        let m = parse("[panic-reach]\nentries = [\"a#b\"] # real comment\n").unwrap();
        assert_eq!(m.entry_files, vec!["a#b"]);
    }
}
