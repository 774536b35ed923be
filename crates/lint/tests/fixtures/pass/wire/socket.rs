//! Pass fixture: the worker server references both server legs of the
//! sequence-number contract — resend recognition (`frame_seq`) and the
//! dedup cache (`last_seq`). Client stamping (`set_seq`) is the TCP
//! client's leg, checked in `reactor.rs`.

pub struct Dedup {
    pub last_seq: u16,
    pub cached: Vec<u8>,
}

pub fn serve(frame: &[u8], dedup: &mut Dedup) -> bool {
    let seq = crate::wire::frame_seq(frame);
    seq != 0 && seq == dedup.last_seq
}
