//! Golden fixture: wire_bytes vs encoder disagreement on one arm.
const TAG: usize = 1;
pub enum Pkt {
    Ping,
    Data(Vec<f32>),
    Nested(Inner),
    Status(u8),
}
impl Pkt {
    pub fn wire_bytes(&self) -> usize {
        match self {
            Pkt::Ping => TAG,
            Pkt::Data(v) => TAG + 4 * v.len(),
            Pkt::Nested(x) => TAG + x.wire_bytes(),
            Pkt::Status(_) => TAG,
        }
    }
}
pub fn write_pkt_body(p: &Pkt, w: &mut Wire) {
    match p {
        Pkt::Ping => {
            w.put_u8(0);
        }
        Pkt::Data(v) => {
            w.put_u8(1);
            w.put_f32s(v);
        }
        Pkt::Nested(x) => {
            w.put_u8(2);
            w.put_sparse(x);
        }
        Pkt::Status(s) => {
            w.put_u8(3);
            w.put_u8(*s);
        }
    }
}
