//! Fail fixture: the worker server lost both the resend recognition
//! (`frame_seq`) and the dedup cache (`last_seq`) — a resent mutating
//! request would re-execute.

pub fn serve(frame: &[u8]) -> u8 {
    frame[5] // opcode byte only: every frame is treated as new
}
