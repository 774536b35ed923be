//! Robustness tests for the wire layer: truncated frames, wrong magic or
//! version bytes, unknown opcodes, hostile length prefixes, and
//! inconsistent aux counts must all come back as a [`WireError`] — never
//! a panic, and never an allocation sized from attacker-controlled
//! numbers. The server must survive all of it and keep serving.

use jc_amuse::wire::{
    self, decode_request, decode_response, encode_request, encode_response, op, read_frame,
    WireError, HEADER_LEN, MAX_PAYLOAD,
};
use jc_amuse::worker::{GravityWorker, ParticleData, Request, Response};
use jc_amuse::{Channel, Reactor, ReactorChannel};
use jc_nbody::plummer::plummer_sphere;
use jc_nbody::Backend;
use proptest::prelude::*;
use std::io::{Cursor, Read, Write};

fn valid_request_frame() -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request(&Request::Kick(vec![[1.0, 2.0, 3.0]; 4]), &mut buf);
    buf
}

#[test]
fn every_truncation_of_a_valid_frame_errors_cleanly() {
    let frame = valid_request_frame();
    for cut in 0..frame.len() {
        let r = decode_request(&frame[..cut]);
        assert!(r.is_err(), "decode of {cut}-byte prefix must fail");
        // streamed reads fail too (EOF mid-frame or clean close at 0)
        let mut buf = Vec::new();
        let r = read_frame(&mut Cursor::new(&frame[..cut]), &mut buf);
        match r {
            Err(WireError::Closed) => assert_eq!(cut, 0, "Closed only before any bytes"),
            Err(WireError::Truncated { .. }) => {}
            other => panic!("cut={cut}: {other:?}"),
        }
    }
}

#[test]
fn wrong_magic_and_version_are_rejected() {
    let mut frame = valid_request_frame();
    frame[0] ^= 0xFF;
    assert!(matches!(decode_request(&frame), Err(WireError::BadMagic(_))));

    let mut frame = valid_request_frame();
    frame[4] = 99; // version byte
    assert_eq!(decode_request(&frame).unwrap_err(), WireError::BadVersion(99));
}

#[test]
fn unknown_opcodes_are_rejected() {
    let mut frame = valid_request_frame();
    frame[5] = 0x77;
    assert_eq!(decode_request(&frame).unwrap_err(), WireError::UnknownOpcode(0x77));
    // a request opcode is not a valid response and vice versa
    let mut buf = Vec::new();
    encode_response(&Response::Ok { flops: 1.0 }, &mut buf);
    assert_eq!(decode_request(&buf).unwrap_err(), WireError::UnknownOpcode(op::RESP_OK));
    assert_eq!(
        decode_response(&valid_request_frame()).unwrap_err(),
        WireError::UnknownOpcode(op::KICK)
    );
}

#[test]
fn oversized_length_prefix_errors_before_allocating() {
    for hostile_len in [MAX_PAYLOAD + 1, u64::MAX, u64::MAX / 2] {
        let mut frame = valid_request_frame();
        frame[8..16].copy_from_slice(&hostile_len.to_le_bytes());
        assert_eq!(decode_request(&frame).unwrap_err(), WireError::Oversized(hostile_len));

        // the streaming reader must reject from the header alone: the
        // receive buffer never grows towards the hostile length
        let mut buf = Vec::new();
        let r = read_frame(&mut Cursor::new(&frame), &mut buf);
        assert_eq!(r, Err(WireError::Oversized(hostile_len)));
        assert!(
            buf.capacity() <= HEADER_LEN + 4096,
            "buffer sized from a hostile length prefix: {}",
            buf.capacity()
        );
    }
}

#[test]
fn stalled_peer_with_maximum_length_prefix_pins_only_one_chunk() {
    // a header that legally declares MAX_PAYLOAD and then stalls (here:
    // EOF) must not make the reader allocate the full 256 MiB — the
    // scratch grows only one READ_CHUNK past what actually arrived
    let mut frame = valid_request_frame();
    frame.truncate(HEADER_LEN);
    frame[5] = op::KICK;
    frame[8..16].copy_from_slice(&wire::MAX_PAYLOAD.to_le_bytes());
    frame[16..24].copy_from_slice(&(wire::MAX_PAYLOAD / 24).to_le_bytes());
    let mut buf = Vec::new();
    let r = read_frame(&mut Cursor::new(&frame), &mut buf);
    assert!(matches!(r, Err(WireError::Truncated { .. })), "{r:?}");
    assert!(
        buf.capacity() <= HEADER_LEN + 2 * wire::READ_CHUNK,
        "stalled peer pinned {} bytes",
        buf.capacity()
    );
}

#[test]
fn inconsistent_aux_counts_are_rejected() {
    // ComputeKick whose aux counts do not add up to the payload length
    let mut buf = Vec::new();
    encode_request(
        &Request::ComputeKick {
            targets: vec![[0.0; 3]; 2],
            source_pos: vec![[0.0; 3]; 3],
            source_mass: vec![1.0; 3],
        },
        &mut buf,
    );
    buf[16..24].copy_from_slice(&100u64.to_le_bytes()); // lie about target count
    assert!(matches!(decode_request(&buf), Err(WireError::BadLength { .. })));

    // Particles whose count disagrees with the payload
    let mut buf = Vec::new();
    encode_response(
        &Response::Particles(ParticleData {
            mass: vec![1.0; 3],
            pos: vec![[0.0; 3]; 3],
            vel: vec![[0.0; 3]; 3],
        }),
        &mut buf,
    );
    buf[16..24].copy_from_slice(&4u64.to_le_bytes());
    assert!(matches!(decode_response(&buf), Err(WireError::BadLength { .. })));

    // count × stride overflow must not wrap around into "consistent"
    let mut buf = Vec::new();
    encode_request(&Request::Kick(Vec::new()), &mut buf);
    buf[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(decode_request(&buf), Err(WireError::BadLength { .. })));
}

#[test]
fn unknown_stellar_event_kind_is_rejected() {
    let mut buf = Vec::new();
    encode_response(
        &Response::StellarUpdate {
            masses: vec![1.0],
            events: vec![jc_stellar::StellarEvent::WindMassLoss { star: 0, mass: 0.1 }],
        },
        &mut buf,
    );
    // event kind tag lives right after the 1-mass payload
    let kind_off = HEADER_LEN + 8;
    buf[kind_off..kind_off + 8].copy_from_slice(&7u64.to_le_bytes());
    assert_eq!(decode_response(&buf).unwrap_err(), WireError::BadEventKind(7));
}

#[test]
fn non_utf8_error_payload_is_rejected() {
    let mut buf = Vec::new();
    encode_response(&Response::Error("ab".into()), &mut buf);
    buf[HEADER_LEN] = 0xFF;
    buf[HEADER_LEN + 1] = 0xFE;
    assert_eq!(decode_response(&buf).unwrap_err(), WireError::Utf8);
}

proptest! {
    /// No byte soup of any length makes the decoders panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let mut buf = Vec::new();
        let _ = read_frame(&mut Cursor::new(&bytes), &mut buf);
    }

    /// Single-byte corruption of a valid frame either still decodes (the
    /// flipped byte was payload data) or errors cleanly — never panics.
    #[test]
    fn single_byte_corruption_never_panics(pos in 0usize..128, flip in 1u8..255) {
        let mut frame = valid_request_frame();
        let pos = pos % frame.len();
        frame[pos] ^= flip;
        let _ = decode_request(&frame);
        let _ = decode_response(&frame);
    }
}

/// A server fed hostile bytes must answer with a protocol-error frame
/// (or close), stay alive for the next connection, and never panic.
#[test]
fn server_rejects_hostile_frames_and_keeps_serving() {
    let (addr, handle) = jc_amuse::spawn_tcp_worker("grav", || {
        GravityWorker::new(plummer_sphere(4, 1), Backend::Scalar)
    });

    // 1: truncated header, then hang up
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(&[0xAA; 7]).unwrap();
        let _ = raw.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        let _ = raw.read_to_end(&mut sink); // server closes, maybe after an error frame
    }

    // 2: good magic/version but hostile length prefix — expect an Error
    // response frame back, then the connection drops
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        let mut frame = Vec::new();
        wire::encode_request(&Request::Ping, &mut frame);
        frame[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        raw.write_all(&frame).unwrap();
        let mut rbuf = Vec::new();
        wire::read_frame(&mut raw, &mut rbuf).expect("server should reply before closing");
        match wire::decode_response(&rbuf).unwrap() {
            Response::Error(e) => assert!(e.contains("protocol error"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    // 3: a well-behaved client is still served
    let reactor = Reactor::new_shared().unwrap();
    let mut c = ReactorChannel::connect(&reactor, addr, "grav").unwrap();
    assert!(matches!(c.call(Request::Ping), Response::Ok { .. }));
    drop(c); // sends Stop
    handle.join().unwrap().unwrap();
}
