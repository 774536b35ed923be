//! Pass fixture: the TCP client goes through the shared codec
//! surface on every leg — `encode_request` (frame building),
//! `decode_response` (reply parsing), `set_seq` (idempotent-retry
//! stamping) and `parse_header` (validated incremental decode).

pub fn submit(req: &crate::worker::Request, seq: u16, buf: &mut Vec<u8>) {
    crate::wire::encode_request(req, buf);
    crate::wire::set_seq(buf, seq);
}

pub fn feed(frame: &[u8]) -> bool {
    crate::wire::parse_header(frame).is_ok()
}

pub fn collect(frame: &[u8]) -> crate::worker::Response {
    crate::wire::decode_response(frame).unwrap()
}
