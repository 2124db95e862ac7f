//! Model weight serialisation: save/load the flat parameter vector with a
//! layout fingerprint so a checkpoint can't be silently loaded into the
//! wrong architecture.

use crate::model::Network;
use dgs_tensor::json;
use std::path::Path;

/// A serialisable snapshot of a model's trainable parameters.
#[derive(Debug, Clone)]
pub struct ModelCheckpoint {
    /// Segment names in partition order — the architecture fingerprint.
    pub layout: Vec<String>,
    /// Segment lengths, parallel to `layout`.
    pub lengths: Vec<usize>,
    /// The flat parameter vector.
    pub data: Vec<f32>,
}

dgs_tensor::json_struct!(ModelCheckpoint { layout, lengths, data });

/// Errors from checkpoint I/O and validation.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Malformed JSON.
    Parse(String),
    /// Checkpoint does not match the target network's layout.
    LayoutMismatch(String),
    /// The parameter at this index is NaN or infinite: JSON has no spelling
    /// for it, so the file could not reproduce the model's bits.
    NonFinite(usize),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse: {e}"),
            CheckpointError::LayoutMismatch(e) => write!(f, "layout mismatch: {e}"),
            CheckpointError::NonFinite(i) => write!(f, "parameter {i} is not finite"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl ModelCheckpoint {
    /// Captures a network's current parameters.
    pub fn capture(net: &Network) -> Self {
        let part = net.params().partition();
        ModelCheckpoint {
            layout: part.segments().iter().map(|s| s.name.clone()).collect(),
            lengths: part.segments().iter().map(|s| s.len).collect(),
            data: net.params().data().to_vec(),
        }
    }

    /// Loads the parameters into a network with a matching layout.
    pub fn apply(&self, net: &mut Network) -> Result<(), CheckpointError> {
        let part = net.params().partition().clone();
        if part.num_segments() != self.layout.len() {
            return Err(CheckpointError::LayoutMismatch(format!(
                "checkpoint has {} segments, network has {}",
                self.layout.len(),
                part.num_segments()
            )));
        }
        for (seg, (name, &len)) in
            part.segments().iter().zip(self.layout.iter().zip(self.lengths.iter()))
        {
            if &seg.name != name || seg.len != len {
                return Err(CheckpointError::LayoutMismatch(format!(
                    "segment '{}' ({} params) vs checkpoint '{}' ({} params)",
                    seg.name, seg.len, name, len
                )));
            }
        }
        if self.data.len() != net.num_params() {
            return Err(CheckpointError::LayoutMismatch(format!(
                "checkpoint holds {} params, network has {}",
                self.data.len(),
                net.num_params()
            )));
        }
        net.params_mut().load_data(&self.data);
        Ok(())
    }

    /// Writes the checkpoint as JSON; refuses a non-finite parameter.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        if let Some(i) = self.data.iter().position(|v| !v.is_finite()) {
            return Err(CheckpointError::NonFinite(i));
        }
        std::fs::write(path, json::to_string(self))?;
        Ok(())
    }

    /// Reads a checkpoint from JSON.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path)?;
        json::from_str(&text).map_err(|e| CheckpointError::Parse(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{mlp, resnet_lite};

    #[test]
    fn capture_apply_roundtrip() {
        let a = mlp(6, &[12], 3, 1);
        let ckpt = ModelCheckpoint::capture(&a);
        let mut b = mlp(6, &[12], 3, 99); // different init
        assert_ne!(a.params().data(), b.params().data());
        ckpt.apply(&mut b).unwrap();
        assert_eq!(a.params().data(), b.params().data());
    }

    #[test]
    fn save_load_roundtrip() {
        let net = resnet_lite(1, 8, 2, 4, 7);
        let ckpt = ModelCheckpoint::capture(&net);
        let path = std::env::temp_dir().join("dgs_nn_ckpt_test.json");
        ckpt.save(&path).unwrap();
        let back = ModelCheckpoint::load(&path).unwrap();
        assert_eq!(back.data, ckpt.data);
        assert_eq!(back.layout, ckpt.layout);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_refuses_a_non_finite_parameter() {
        let mut ckpt = ModelCheckpoint::capture(&mlp(6, &[12], 3, 1));
        ckpt.data[5] = f32::NAN;
        let path = std::env::temp_dir().join("dgs_nn_ckpt_nonfinite.json");
        assert!(matches!(ckpt.save(&path), Err(CheckpointError::NonFinite(5))));
        assert!(!path.exists(), "nothing is written");
    }

    #[test]
    fn rejects_wrong_architecture() {
        let a = mlp(6, &[12], 3, 1);
        let ckpt = ModelCheckpoint::capture(&a);
        let mut wrong_width = mlp(6, &[13], 3, 1);
        assert!(matches!(ckpt.apply(&mut wrong_width), Err(CheckpointError::LayoutMismatch(_))));
        let mut wrong_depth = mlp(6, &[12, 12], 3, 1);
        assert!(ckpt.apply(&mut wrong_depth).is_err());
    }

    #[test]
    fn load_rejects_garbage() {
        let path = std::env::temp_dir().join("dgs_nn_ckpt_garbage.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(matches!(ModelCheckpoint::load(&path), Err(CheckpointError::Parse(_))));
        std::fs::remove_file(path).ok();
        assert!(matches!(
            ModelCheckpoint::load("/definitely/not/a/path.json"),
            Err(CheckpointError::Io(_))
        ));
    }
}
