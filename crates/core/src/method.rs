//! The five training methods and their technique matrix (paper Table 5).

use dgs_tensor::json::{Error, FromJson, ToJson, Value};

/// A training method evaluated in the paper.
///
/// ```
/// use dgs_core::method::Method;
///
/// let m: Method = "dgs".parse().unwrap();
/// assert_eq!(m, Method::Dgs);
/// assert!(m.uses_model_difference());
/// assert_eq!(m.techniques().momentum, "SAMomentum");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Single-node momentum SGD — the accuracy baseline.
    Msgd,
    /// Vanilla asynchronous SGD: dense gradients up, dense model down.
    Asgd,
    /// Gradient Dropping made asynchronous via model-difference tracking
    /// (Alg. 1): Top-k up, residual accumulation, no momentum.
    GdAsync,
    /// Deep Gradient Compression made asynchronous: Top-k with momentum
    /// correction, momentum factor masking, warm-up ramp, and clipping.
    DgcAsync,
    /// The paper's method: dual-way sparsification with SAMomentum (Alg. 3).
    Dgs,
}

impl Method {
    /// All methods, in the paper's presentation order.
    pub const ALL: [Method; 5] =
        [Method::Msgd, Method::Asgd, Method::GdAsync, Method::DgcAsync, Method::Dgs];

    /// The asynchronous methods (everything but the single-node baseline).
    pub const ASYNC: [Method; 4] = [Method::Asgd, Method::GdAsync, Method::DgcAsync, Method::Dgs];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Msgd => "MSGD",
            Method::Asgd => "ASGD",
            Method::GdAsync => "GD-async",
            Method::DgcAsync => "DGC-async",
            Method::Dgs => "DGS",
        }
    }

    /// Whether the uplink is Top-k sparsified.
    pub fn sparsifies_uplink(&self) -> bool {
        !matches!(self, Method::Msgd | Method::Asgd)
    }

    /// Whether the downlink uses model-difference tracking (sparse).
    pub fn uses_model_difference(&self) -> bool {
        self.sparsifies_uplink()
    }

    /// Table 5 row: the set of techniques the method combines.
    pub fn techniques(&self) -> TechniqueRow {
        match self {
            Method::Msgd => TechniqueRow {
                method: self.name(),
                sparsification: "none",
                momentum: "vanilla",
                momentum_correction: false,
                residual_accumulation: false,
            },
            Method::Asgd => TechniqueRow {
                method: self.name(),
                sparsification: "none",
                momentum: "none",
                momentum_correction: false,
                residual_accumulation: false,
            },
            Method::GdAsync => TechniqueRow {
                method: self.name(),
                sparsification: "dual-way (MDT)",
                momentum: "none",
                momentum_correction: false,
                residual_accumulation: true,
            },
            Method::DgcAsync => TechniqueRow {
                method: self.name(),
                sparsification: "dual-way (MDT)",
                momentum: "vanilla",
                momentum_correction: true,
                residual_accumulation: true,
            },
            Method::Dgs => TechniqueRow {
                method: self.name(),
                sparsification: "dual-way (MDT)",
                momentum: "SAMomentum",
                momentum_correction: false,
                residual_accumulation: false,
            },
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "msgd" => Ok(Method::Msgd),
            "asgd" => Ok(Method::Asgd),
            "gd" | "gd-async" | "gdasync" => Ok(Method::GdAsync),
            "dgc" | "dgc-async" | "dgcasync" => Ok(Method::DgcAsync),
            "dgs" => Ok(Method::Dgs),
            other => Err(format!("unknown method '{other}'")),
        }
    }
}

/// In JSON a method is its variant identifier (`"Dgs"`, `"GdAsync"`).
impl ToJson for Method {
    fn to_json(&self) -> Value {
        Value::Str(format!("{self:?}"))
    }
}

impl FromJson for Method {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let name = String::from_json(v)?;
        Method::ALL
            .into_iter()
            .find(|m| format!("{m:?}") == name)
            .ok_or_else(|| Error::new(format!("unknown method variant '{name}'")))
    }
}

/// One row of the paper's Table 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TechniqueRow {
    /// Method name.
    pub method: &'static str,
    /// Sparsification scheme.
    pub sparsification: &'static str,
    /// Momentum variant.
    pub momentum: &'static str,
    /// Whether DGC-style momentum correction is applied.
    pub momentum_correction: bool,
    /// Whether unsent gradients are accumulated in a residual buffer.
    pub residual_accumulation: bool,
}

/// Write-only: the names are `&'static str`.
impl ToJson for TechniqueRow {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("method".into(), self.method.to_json()),
            ("sparsification".into(), self.sparsification.to_json()),
            ("momentum".into(), self.momentum.to_json()),
            ("momentum_correction".into(), self.momentum_correction.to_json()),
            ("residual_accumulation".into(), self.residual_accumulation.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn names_match_paper() {
        assert_eq!(Method::Dgs.name(), "DGS");
        assert_eq!(Method::GdAsync.name(), "GD-async");
        assert_eq!(Method::DgcAsync.to_string(), "DGC-async");
    }

    #[test]
    fn parse_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::from_str(m.name()).unwrap(), m);
        }
        assert!(Method::from_str("bogus").is_err());
    }

    #[test]
    fn technique_matrix_matches_table5() {
        // DGS: SAMomentum, no correction, no residuals.
        let dgs = Method::Dgs.techniques();
        assert_eq!(dgs.momentum, "SAMomentum");
        assert!(!dgs.momentum_correction);
        assert!(!dgs.residual_accumulation);
        // DGC-async: vanilla momentum + correction + residuals.
        let dgc = Method::DgcAsync.techniques();
        assert_eq!(dgc.momentum, "vanilla");
        assert!(dgc.momentum_correction);
        assert!(dgc.residual_accumulation);
        // GD-async: no momentum, residuals only.
        let gd = Method::GdAsync.techniques();
        assert_eq!(gd.momentum, "none");
        assert!(gd.residual_accumulation);
        // ASGD: nothing.
        let asgd = Method::Asgd.techniques();
        assert_eq!(asgd.sparsification, "none");
    }

    #[test]
    fn sparsification_flags() {
        assert!(!Method::Msgd.sparsifies_uplink());
        assert!(!Method::Asgd.sparsifies_uplink());
        assert!(Method::GdAsync.sparsifies_uplink());
        assert!(Method::DgcAsync.uses_model_difference());
        assert!(Method::Dgs.uses_model_difference());
    }
}
