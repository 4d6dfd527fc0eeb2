//! The serve-mode wire protocol: a tiny fixed handshake around the
//! self-describing adaptive frame stream.
//!
//! ```text
//! client → server   request   "ACSV" ver kind [tenant_len tenant id total]
//! server → client   response  status [start_offset level_cap]
//! client → server   adaptive frame stream of payload[start_offset..total]
//! server → client   done      status verified crc32
//! ```
//!
//! A connection carries requests one after another. The server reads a
//! PUT's frames until `total` application bytes have arrived, not until
//! EOF, so the next request can follow the last frame; it is served after
//! a GET reply or a successful `done`. A reject, a drain, an incomplete
//! `done` or any error ends the connection.
//!
//! Everything is little-endian and length-prefixed; the handshake carries
//! no compression parameters because frames are self-describing. The
//! accept frame's `level_cap` byte is reserved: this daemon always sends
//! [`NO_LEVEL_CAP`] in a PUT accept, and the client ignores it; the byte
//! stays on the wire so the frame layout does not move.
//! `start_offset` is the server's count of *verified* application bytes
//! for `(tenant, transfer_id)`, which is what makes reconnect-and-resume
//! safe: a retrying client always continues from a clean, CRC-checked
//! prefix, never from bytes that died in flight.
//!
//! Every control frame carries a CRC-32 trailer over its preceding bytes.
//! The payload stream is already CRC-protected per frame, but an
//! unprotected handshake would let a single flipped wire bit silently
//! redirect a stream to the wrong `(tenant, transfer_id)` or forge a
//! resume offset — the chaos proxy found exactly that. With the trailer,
//! a damaged control frame is a typed `InvalidData` error (shed as
//! `bad_request` server-side, a retryable transport error client-side),
//! never a misrouted transfer.
//!
//! Every frame is written with one `write_all`, and the readers take a
//! frame in at most two exact-length reads — a fixed head, then what the
//! head announces — never a byte past its trailer, so whatever follows on
//! the socket (a PUT's frame stream) is left for its own reader.
//! The server writes a GET reply as `GetReply` pieces, vectored writes
//! straight from the wire and the decoded blocks: a ranged reply in one
//! piece, a whole-object reply in one piece per block it decodes.

use adcomp_codecs::crc32::{crc32, Hasher};
use std::io::{self, IoSlice, Read, Write};

/// Request magic: "adcomp serve" v1.
pub const MAGIC: [u8; 4] = *b"ACSV";
/// Protocol version.
pub const VERSION: u8 = 1;
/// The value a PUT accept carries in its reserved `level_cap` byte.
pub const NO_LEVEL_CAP: u8 = u8::MAX;
/// Longest accepted tenant name, bytes.
pub const MAX_TENANT: usize = 64;

/// What a client asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Stream a transfer of `total_len` application bytes.
    Put { tenant: String, transfer_id: u64, total_len: u64 },
    /// Begin a graceful drain: stop admitting, finish in-flight streams.
    Drain,
    /// Fetch `[offset, offset + len)` of a completed transfer's
    /// application bytes. The server replies with an
    /// [`Response::Accept`] whose `start_offset` is the byte count that
    /// follows (clamped to the transfer end), then the bytes themselves
    /// with a CRC-32 trailer ([`write_get_payload`]).
    Get { tenant: String, transfer_id: u64, offset: u64, len: u64 },
}

/// Why an admission was refused. `as_str` doubles as the
/// `adcomp_serve_shed_total{reason=…}` label value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectReason {
    /// Global connection budget exhausted.
    Capacity = 1,
    /// This tenant's quota exhausted (or the transfer is already being
    /// streamed on another connection).
    TenantQuota = 2,
    /// The server is draining for shutdown.
    Draining = 3,
    /// Declared length above the server's per-transfer cap.
    TooLarge = 4,
    /// Malformed or incompatible handshake.
    BadRequest = 5,
}

impl RejectReason {
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::Capacity => "capacity",
            RejectReason::TenantQuota => "tenant_quota",
            RejectReason::Draining => "draining",
            RejectReason::TooLarge => "too_large",
            RejectReason::BadRequest => "bad_request",
        }
    }

    fn from_code(code: u8) -> Option<RejectReason> {
        Some(match code {
            1 => RejectReason::Capacity,
            2 => RejectReason::TenantQuota,
            3 => RejectReason::Draining,
            4 => RejectReason::TooLarge,
            5 => RejectReason::BadRequest,
            _ => return None,
        })
    }

    /// Whether a client should retry after backoff (true) or give up
    /// immediately (false: the request itself is unservable).
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            RejectReason::Capacity | RejectReason::TenantQuota | RejectReason::Draining
        )
    }
}

/// The server's admission verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// Admitted: stream from `start_offset`. `level_cap` is a reserved
    /// byte, [`NO_LEVEL_CAP`] in every PUT accept and ignored by the
    /// client. For a [`Request::Drain`], `start_offset` carries the number
    /// of transfers still in flight.
    Accept { start_offset: u64, level_cap: u8 },
    /// Refused, with the reason; the connection is then closed.
    Reject { reason: RejectReason },
}

/// End-of-transfer receipt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Done {
    /// Whether the server holds the complete, CRC-verified transfer.
    pub ok: bool,
    /// Verified application bytes held for the transfer.
    pub verified: u64,
    /// CRC-32 of the verified bytes.
    pub crc: u32,
}

/// Appends the CRC-32 trailer and writes the frame.
fn write_framed(w: &mut impl Write, mut buf: Vec<u8>) -> io::Result<()> {
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    w.write_all(&buf)
}

/// Splits `framed` into the bytes its 4-byte CRC trailer covers and checks
/// the trailer against them.
fn split_trailer(framed: &[u8]) -> io::Result<&[u8]> {
    let (seen, trailer) = framed.split_last_chunk().ok_or_else(|| bad("control frame too short"))?;
    if u32::from_le_bytes(*trailer) != crc32(seen) {
        return Err(bad("control frame failed CRC check"));
    }
    Ok(seen)
}

/// The first `N` bytes of `bytes`, for a little-endian field.
fn field<const N: usize>(bytes: &[u8]) -> io::Result<[u8; N]> {
    bytes.first_chunk().copied().ok_or_else(|| bad("control frame too short"))
}

pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    let mut buf = Vec::with_capacity(32);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    match req {
        Request::Put { tenant, transfer_id, total_len } => {
            if tenant.len() > MAX_TENANT || tenant.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "tenant name must be 1..=64 bytes",
                ));
            }
            buf.push(0);
            buf.push(tenant.len() as u8);
            buf.extend_from_slice(tenant.as_bytes());
            buf.extend_from_slice(&transfer_id.to_le_bytes());
            buf.extend_from_slice(&total_len.to_le_bytes());
        }
        Request::Drain => buf.push(1),
        Request::Get { tenant, transfer_id, offset, len } => {
            if tenant.len() > MAX_TENANT || tenant.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "tenant name must be 1..=64 bytes",
                ));
            }
            buf.push(2);
            buf.push(tenant.len() as u8);
            buf.extend_from_slice(tenant.as_bytes());
            buf.extend_from_slice(&transfer_id.to_le_bytes());
            buf.extend_from_slice(&offset.to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
        }
    }
    write_framed(w, buf)
}

/// Bytes every request starts with: magic, version, kind and one byte
/// more (the tenant length, or for a [`Request::Drain`] the first trailer
/// byte). No request is shorter, so reading this much never takes a byte
/// that belongs to what follows the request.
const REQUEST_HEAD: usize = 7;
/// Longest request on the wire: a GET with a [`MAX_TENANT`]-byte tenant.
const MAX_REQUEST: usize = REQUEST_HEAD + MAX_TENANT + 24 + 4;

/// Reads one request in two exact-length reads — the fixed head, then
/// the remainder the head announces, trailer included — and never
/// consumes a byte past the trailer: a PUT's frame stream follows on the
/// same socket and belongs to the ingest path.
pub fn read_request(r: &mut impl Read) -> io::Result<Request> {
    let mut buf = [0u8; MAX_REQUEST];
    r.read_exact(&mut buf[..REQUEST_HEAD])?;
    if buf[..4] != MAGIC {
        return Err(bad("bad magic"));
    }
    if buf[4] != VERSION {
        return Err(bad("unsupported protocol version"));
    }
    // How many u64 fields follow the tenant name.
    let nums = match buf[5] {
        0 => 2,
        1 => 0,
        2 => 3,
        _ => return Err(bad("unknown request kind")),
    };
    // A drain carries no tenant: its trailer starts right after the kind
    // byte, so the head already holds the first trailer byte.
    let (tenant_len, crc_at) = if nums == 0 {
        (0, REQUEST_HEAD - 1)
    } else {
        let len = buf[6] as usize;
        if len == 0 || len > MAX_TENANT {
            return Err(bad("tenant name must be 1..=64 bytes"));
        }
        (len, REQUEST_HEAD + len + 8 * nums)
    };
    r.read_exact(&mut buf[REQUEST_HEAD..crc_at + 4])?;
    split_trailer(&buf[..crc_at + 4])?;
    if nums == 0 {
        return Ok(Request::Drain);
    }
    let tenant_end = REQUEST_HEAD + tenant_len;
    let tenant = String::from_utf8(buf[REQUEST_HEAD..tenant_end].to_vec())
        .map_err(|_| bad("tenant not utf-8"))?;
    let num = |i: usize| field(&buf[tenant_end + 8 * i..]).map(u64::from_le_bytes);
    Ok(if nums == 2 {
        Request::Put { tenant, transfer_id: num(0)?, total_len: num(1)? }
    } else {
        Request::Get { tenant, transfer_id: num(0)?, offset: num(1)?, len: num(2)? }
    })
}

/// Writes a GET data stream: the raw bytes followed by a CRC-32 trailer.
/// The byte count was already announced in the accept frame's
/// `start_offset`, so the stream needs no length prefix of its own.
pub fn write_get_payload(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    w.write_all(bytes)?;
    w.write_all(&crc32(bytes).to_le_bytes())
}

/// Reads a GET data stream of exactly `n` announced bytes — body and
/// trailer in one `read_exact` — and verifies its CRC-32 trailer.
pub fn read_get_payload(r: &mut impl Read, n: u64) -> io::Result<Vec<u8>> {
    let framed = usize::try_from(n).ok().and_then(|n| n.checked_add(4));
    let mut bytes = vec![0u8; framed.ok_or_else(|| bad("announced length overflows"))?];
    r.read_exact(&mut bytes)?;
    let n = split_trailer(&bytes)?.len();
    bytes.truncate(n);
    Ok(bytes)
}

/// A GET reply written in pieces: the accept frame with the first, the
/// body parts where they lie, the CRC trailer with the last. Each piece
/// is one vectored write (more only when the writer takes part of it), and
/// the pieces of a reply, in order, are byte for byte what
/// [`write_response`] followed by [`write_get_payload`] put on the wire.
pub(crate) struct GetReply {
    /// The accept frame, until the first piece takes it.
    head: Option<[u8; ACCEPT_FRAME]>,
    crc: Hasher,
}

impl GetReply {
    /// A reply announcing `body_len` body bytes.
    pub(crate) fn new(body_len: u64) -> GetReply {
        GetReply { head: Some(accept_frame(body_len, NO_LEVEL_CAP)), crc: Hasher::new() }
    }

    /// Whether a piece has gone out, or begun to: from then on the reply
    /// can only be finished or cut, no longer refused.
    pub(crate) fn started(&self) -> bool {
        self.head.is_none()
    }

    /// Writes the next piece: `body`, after the accept frame if no piece
    /// took it yet, and before the trailer if this piece is the `last`.
    pub(crate) fn write<'a>(
        &mut self,
        w: &mut impl Write,
        body: impl Iterator<Item = &'a [u8]>,
        last: bool,
    ) -> io::Result<()> {
        let head = self.head.take();
        let trailer;
        let mut slices: Vec<IoSlice<'_>> = head.iter().map(|head| IoSlice::new(head)).collect();
        for part in body {
            self.crc.update(part);
            slices.push(IoSlice::new(part));
        }
        if last {
            trailer = self.crc.finish().to_le_bytes();
            slices.push(IoSlice::new(&trailer));
        }
        write_all_vectored(w, &mut slices)
    }
}

/// `Write::write_all_vectored`, which is unstable in std: writes every
/// byte of `bufs`, resuming after a partial write.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "failed to write reply")),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Wire size of an accept frame (status, offset, cap, trailer) and of a
/// reject frame (status, trailer).
const ACCEPT_FRAME: usize = 14;
const REJECT_FRAME: usize = 5;

fn accept_frame(start_offset: u64, level_cap: u8) -> [u8; ACCEPT_FRAME] {
    let mut buf = [0u8; ACCEPT_FRAME];
    buf[1..9].copy_from_slice(&start_offset.to_le_bytes());
    buf[9] = level_cap;
    let crc = crc32(&buf[..10]);
    buf[10..].copy_from_slice(&crc.to_le_bytes());
    buf
}

pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    match *resp {
        Response::Accept { start_offset, level_cap } => {
            w.write_all(&accept_frame(start_offset, level_cap))
        }
        Response::Reject { reason } => write_framed(w, vec![reason as u8]),
    }
}

/// Reads a verdict: the reject-sized head first (no verdict is shorter),
/// then the rest of an accept frame when the status byte announces one.
pub fn read_response(r: &mut impl Read) -> io::Result<Response> {
    let mut buf = [0u8; ACCEPT_FRAME];
    r.read_exact(&mut buf[..REJECT_FRAME])?;
    if buf[0] == 0 {
        r.read_exact(&mut buf[REJECT_FRAME..])?;
        let seen = split_trailer(&buf)?;
        Ok(Response::Accept {
            start_offset: u64::from_le_bytes(field(&seen[1..])?),
            level_cap: seen[9],
        })
    } else {
        split_trailer(&buf[..REJECT_FRAME])?;
        let reason = RejectReason::from_code(buf[0]).ok_or_else(|| bad("unknown status"))?;
        Ok(Response::Reject { reason })
    }
}

pub fn write_done(w: &mut impl Write, done: &Done) -> io::Result<()> {
    let mut buf = vec![0u8; 13];
    buf[0] = u8::from(!done.ok);
    buf[1..9].copy_from_slice(&done.verified.to_le_bytes());
    buf[9..].copy_from_slice(&done.crc.to_le_bytes());
    write_framed(w, buf)
}

pub fn read_done(r: &mut impl Read) -> io::Result<Done> {
    let mut buf = [0u8; 17];
    r.read_exact(&mut buf)?;
    let seen = split_trailer(&buf)?;
    if seen[0] > 1 {
        return Err(bad("malformed done frame"));
    }
    Ok(Done {
        ok: seen[0] == 0,
        verified: u64::from_le_bytes(field(&seen[1..])?),
        crc: u32::from_le_bytes(field(&seen[9..])?),
    })
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::super::testio::Counting;
    use super::*;

    #[test]
    fn put_request_roundtrips() {
        let req = Request::Put {
            tenant: "tenant-a".to_string(),
            transfer_id: 0xDEAD_BEEF_1234,
            total_len: 1 << 30,
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        assert_eq!(read_request(&mut &wire[..]).unwrap(), req);
    }

    #[test]
    fn drain_request_roundtrips() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Drain).unwrap();
        assert_eq!(read_request(&mut &wire[..]).unwrap(), Request::Drain);
    }

    #[test]
    fn get_request_roundtrips() {
        let req = Request::Get {
            tenant: "reader-9".to_string(),
            transfer_id: 0x0102_0304_0506,
            offset: 7 << 20,
            len: 128 * 1024,
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        assert_eq!(read_request(&mut &wire[..]).unwrap(), req);
    }

    #[test]
    fn get_payload_roundtrips_and_rejects_flips() {
        let data = b"ranged get payload bytes".to_vec();
        let mut wire = Vec::new();
        write_get_payload(&mut wire, &data).unwrap();
        assert_eq!(read_get_payload(&mut &wire[..], data.len() as u64).unwrap(), data);
        for i in 0..wire.len() {
            let mut hurt = wire.clone();
            hurt[i] ^= 0x10;
            assert!(
                read_get_payload(&mut &hurt[..], data.len() as u64).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Accept { start_offset: 0, level_cap: NO_LEVEL_CAP },
            Response::Accept { start_offset: 123_456, level_cap: 0 },
            Response::Reject { reason: RejectReason::Capacity },
            Response::Reject { reason: RejectReason::Draining },
            Response::Reject { reason: RejectReason::TooLarge },
        ] {
            let mut wire = Vec::new();
            write_response(&mut wire, &resp).unwrap();
            assert_eq!(read_response(&mut &wire[..]).unwrap(), resp);
        }
    }

    #[test]
    fn done_roundtrips() {
        for done in [
            Done { ok: true, verified: 999, crc: 0xCAFE_F00D },
            Done { ok: false, verified: 0, crc: 0 },
        ] {
            let mut wire = Vec::new();
            write_done(&mut wire, &done).unwrap();
            assert_eq!(read_done(&mut &wire[..]).unwrap(), done);
        }
    }

    #[test]
    fn junk_is_rejected_not_panicked() {
        assert!(read_request(&mut &b"GET / HTTP/1.0\r\n"[..]).is_err());
        assert!(read_request(&mut &b"ACSV"[..]).is_err()); // truncated
        assert!(read_request(&mut &[b'A', b'C', b'S', b'V', 9, 0][..]).is_err()); // bad version
        assert!(read_response(&mut &[200u8][..]).is_err()); // unknown status
        let mut long = vec![b'A', b'C', b'S', b'V', VERSION, 0, 255];
        long.extend_from_slice(&[b'x'; 255]);
        assert!(read_request(&mut &long[..]).is_err(), "overlong tenant accepted");
    }

    #[test]
    fn any_single_byte_flip_in_a_control_frame_is_detected() {
        // The soak's original failure mode: one flipped wire byte in the
        // handshake redirecting a stream to the wrong key. Every control
        // frame must reject every single-byte corruption (CRC-32 catches
        // all bursts shorter than 32 bits).
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            &Request::Put { tenant: "tenant-0".into(), transfer_id: 58, total_len: 4716 },
        )
        .unwrap();
        frames.push(std::mem::take(&mut wire));
        write_request(&mut wire, &Request::Drain).unwrap();
        frames.push(std::mem::take(&mut wire));
        write_request(
            &mut wire,
            &Request::Get { tenant: "tenant-0".into(), transfer_id: 58, offset: 512, len: 4096 },
        )
        .unwrap();
        frames.push(std::mem::take(&mut wire));
        write_response(&mut wire, &Response::Accept { start_offset: 77, level_cap: 3 }).unwrap();
        frames.push(std::mem::take(&mut wire));
        write_response(&mut wire, &Response::Reject { reason: RejectReason::Capacity }).unwrap();
        frames.push(std::mem::take(&mut wire));
        write_done(&mut wire, &Done { ok: true, verified: 4716, crc: 0x1234_5678 }).unwrap();
        frames.push(std::mem::take(&mut wire));
        // A GET reply: accept frame, body and trailer together.
        let body = b"coalesced ranged get body";
        let accept = Response::Accept { start_offset: body.len() as u64, level_cap: NO_LEVEL_CAP };
        write_response(&mut wire, &accept).unwrap();
        write_get_payload(&mut wire, body).unwrap();
        frames.push(std::mem::take(&mut wire));
        let read_reply = |r: &mut &[u8]| match read_response(r)? {
            Response::Accept { start_offset, .. } => read_get_payload(r, start_offset),
            Response::Reject { .. } => Err(bad("reject")),
        };
        assert_eq!(read_reply(&mut &frames[6][..]).unwrap(), body);
        for (f, frame) in frames.iter().enumerate() {
            for i in 0..frame.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut hurt = frame.clone();
                    hurt[i] ^= flip;
                    let r = &mut &hurt[..];
                    let err = match f {
                        0..=2 => read_request(r).is_err(),
                        3 | 4 => read_response(r).is_err(),
                        5 => read_done(r).is_err(),
                        _ => read_reply(r).is_err(),
                    };
                    assert!(err, "frame {f}: flip {flip:#x} at byte {i} went undetected");
                }
            }
        }
    }

    #[test]
    fn request_takes_two_reads_and_stops_at_its_trailer() {
        // What follows a PUT request on the socket is the frame stream;
        // the request parser must leave every byte of it unread.
        let follow = b"ADCF frame stream bytes that belong to the ingest path";
        for req in [
            Request::Put { tenant: "t".into(), transfer_id: 1, total_len: 9 },
            Request::Put { tenant: "x".repeat(MAX_TENANT), transfer_id: u64::MAX, total_len: 0 },
            Request::Get { tenant: "reader".into(), transfer_id: 2, offset: 3, len: 4 },
            Request::Drain,
        ] {
            let mut wire = Vec::new();
            write_request(&mut wire, &req).unwrap();
            wire.extend_from_slice(follow);
            let mut r = Counting::new(&wire[..]);
            assert_eq!(read_request(&mut r).unwrap(), req);
            assert!(r.calls <= 2, "{req:?} took {} reads", r.calls);
            assert_eq!(r.inner, follow, "{req:?}: parser consumed bytes past the trailer");
        }
    }

    #[test]
    fn absurd_announced_length_is_an_error_not_an_overflow() {
        assert!(read_get_payload(&mut &[0u8; 8][..], u64::MAX).is_err());
    }

    #[test]
    fn retryability_matches_taxonomy() {
        assert!(RejectReason::Capacity.is_retryable());
        assert!(RejectReason::TenantQuota.is_retryable());
        assert!(RejectReason::Draining.is_retryable());
        assert!(!RejectReason::TooLarge.is_retryable());
        assert!(!RejectReason::BadRequest.is_retryable());
    }
}
