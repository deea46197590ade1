//! The farm wire protocol: length-prefixed frames over std TCP.
//!
//! Every message is one **frame**: an ASCII decimal payload length, a
//! newline, then exactly that many payload bytes. The payload's first
//! line is the **header** (a verb plus space-separated arguments); the
//! bytes after the header's newline are the opaque **body** (a shard
//! fragment, a relayed stderr line, an error message). Length prefixing
//! is what makes fragment transfer tear-proof: a frame either arrives
//! whole or the connection errors — there is no way to observe half a
//! fragment.
//!
//! The first frame on every connection is the versioned handshake: the
//! connecting peer sends `HELLO dvmfarm/<version> <role> <name>` and the
//! coordinator answers `OLEH dvmfarm/<version> farmd` — or `ERR` with a
//! reason, including a version mismatch. Version 1 requires an exact
//! match; there is no downgrade negotiation.
//!
//! See DESIGN.md §7 "Sweep farm" for the full verb table and failure
//! modes.

use std::io::{self, Read, Write};

/// Protocol magic, the first token of every handshake version string.
pub const MAGIC: &str = "dvmfarm";

/// Protocol version spoken by this build. Peers must match exactly.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on one frame's payload, defending both sides against a
/// garbage length prefix. Fragments are a few MiB at worst.
pub const MAX_FRAME: usize = 64 << 20;

/// Cap on relayed stderr lines (progress, cache stats): longer lines are
/// truncated at a char boundary before they are framed or printed, so a
/// runaway worker cannot balloon coordinator or client memory.
pub const MAX_LINE: usize = 4096;

/// One parsed frame: the header line and the opaque body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Verb plus space-separated arguments (never contains `\n`).
    pub header: String,
    /// Opaque payload after the header line; empty for most verbs.
    pub body: Vec<u8>,
}

impl Frame {
    /// The header's first token (empty string for an empty header).
    pub fn verb(&self) -> &str {
        self.header.split_whitespace().next().unwrap_or("")
    }

    /// The header tokens after the verb.
    pub fn args(&self) -> Vec<&str> {
        self.header.split_whitespace().skip(1).collect()
    }

    /// The body as text (lossy — relayed lines are expected UTF-8).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Write one frame. The whole frame is assembled into a single buffer
/// and written with one `write_all`, so concurrent writers serialized by
/// a mutex can never interleave partial frames.
///
/// # Errors
///
/// I/O errors from the underlying stream; `InvalidInput` if the frame
/// would exceed [`MAX_FRAME`] or the header contains a newline.
pub fn write_frame(w: &mut impl Write, header: &str, body: &[u8]) -> io::Result<()> {
    if header.contains('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame header contains a newline",
        ));
    }
    let payload_len = header.len() + 1 + body.len();
    if payload_len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {payload_len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = Vec::with_capacity(payload_len + 12);
    buf.extend_from_slice(payload_len.to_string().as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(header.as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(body);
    w.write_all(&buf)?;
    w.flush()
}

/// Read one frame, blocking until it arrives whole.
///
/// # Errors
///
/// `UnexpectedEof` on a connection closed before or inside a frame,
/// `InvalidData` on a malformed or oversized length prefix, otherwise
/// the stream's error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut first = [0u8; 1];
    r.read_exact(&mut first)?;
    read_frame_resume(first[0], r)
}

/// [`read_frame`] for callers that already pulled the first byte off the
/// stream (the worker's idle loop reads byte one under a timeout, then
/// finishes the frame blocking so a timeout can never split a frame).
///
/// # Errors
///
/// Same conditions as [`read_frame`].
pub fn read_frame_resume(first: u8, r: &mut impl Read) -> io::Result<Frame> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut len: usize = 0;
    let mut digits = 0usize;
    let mut byte = first;
    loop {
        match byte {
            b'\n' if digits > 0 => break,
            b'0'..=b'9' if digits < 9 => {
                len = len * 10 + usize::from(byte - b'0');
                digits += 1;
            }
            _ => return Err(bad("malformed frame length prefix")),
        }
        let mut next = [0u8; 1];
        r.read_exact(&mut next)?;
        byte = next[0];
    }
    if len == 0 || len > MAX_FRAME {
        return Err(bad("frame length out of range"));
    }
    // The buffer grows only as payload bytes arrive: a peer that
    // announces MAX_FRAME and sends nothing pins no memory.
    let mut payload = Vec::new();
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed inside a frame payload",
        ));
    }
    let split = payload
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(payload.len());
    let header = String::from_utf8(payload[..split].to_vec())
        .map_err(|_| bad("frame header is not UTF-8"))?;
    let body = if split < payload.len() {
        payload.split_off(split + 1)
    } else {
        Vec::new()
    };
    Ok(Frame { header, body })
}

/// The `magic/version` token both handshake lines carry.
pub fn version_token() -> String {
    format!("{MAGIC}/{PROTOCOL_VERSION}")
}

/// A parsed `HELLO` handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The peer's role: `worker` or `client`.
    pub role: String,
    /// The peer's self-chosen display name (a [`is_token`] token).
    pub name: String,
}

/// Parse and validate a `HELLO` frame's header.
///
/// # Errors
///
/// A user-facing reason string, suitable as an `ERR` body: wrong magic,
/// version mismatch, malformed shape, or a bad role/name token.
pub fn parse_hello(header: &str) -> Result<Hello, String> {
    let parts: Vec<&str> = header.split_whitespace().collect();
    let [verb, version, role, name] = parts.as_slice() else {
        return Err("malformed handshake (want: HELLO dvmfarm/<ver> <role> <name>)".to_string());
    };
    if *verb != "HELLO" {
        return Err(format!("expected HELLO, got '{verb}'"));
    }
    let (magic, ver) = version.split_once('/').unwrap_or((version, ""));
    if magic != MAGIC {
        return Err(format!("not a {MAGIC} peer (got '{version}')"));
    }
    if ver.parse::<u32>() != Ok(PROTOCOL_VERSION) {
        return Err(format!(
            "protocol version mismatch: peer speaks {MAGIC}/{ver}, this side speaks {}",
            version_token()
        ));
    }
    if *role != "worker" && *role != "client" {
        return Err(format!("unknown role '{role}' (worker|client)"));
    }
    if !is_token(name) {
        return Err(format!("bad peer name '{name}'"));
    }
    Ok(Hello {
        role: (*role).to_string(),
        name: (*name).to_string(),
    })
}

/// `true` for names safe to embed in headers and file names: 1–64 chars
/// of `[A-Za-z0-9._-]`.
pub fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// If `line` is a sweep `progress:` line, its unit label — the text in
/// the final parentheses, or everything after the prefix when there are
/// none. This is what the coordinator aggregates into the one global
/// done/total counter (the per-worker counts are dropped).
pub fn progress_label(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("progress: ")?;
    Some(
        rest.rfind('(')
            .map_or(rest, |open| rest[open + 1..].trim_end_matches(')')),
    )
}

/// Truncate a relayed line to [`MAX_LINE`] bytes at a char boundary.
pub fn truncate_line(line: &str) -> &str {
    if line.len() <= MAX_LINE {
        return line;
    }
    let mut end = MAX_LINE;
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}

/// Print one line to stderr tear-proof: the line is length-checked
/// (truncated at [`MAX_LINE`]), assembled with its newline into a single
/// buffer, and written with one `write_all` under the stderr lock — so
/// relay threads and processes can never interleave partial lines the
/// way per-fragment `eprintln!` formatting could.
pub fn emit_stderr_line(line: &str) {
    let line = truncate_line(line);
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    let stderr = io::stderr();
    let mut handle = stderr.lock();
    let _ = handle.write_all(&buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "DONE 3 1", b"fragment bytes").unwrap();
        write_frame(&mut wire, "READY", b"").unwrap();
        let mut r = wire.as_slice();
        let first = read_frame(&mut r).unwrap();
        assert_eq!(first.verb(), "DONE");
        assert_eq!(first.args(), vec!["3", "1"]);
        assert_eq!(first.body, b"fragment bytes");
        let second = read_frame(&mut r).unwrap();
        assert_eq!(second.verb(), "READY");
        assert!(second.body.is_empty());
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn bodies_may_hold_newlines_and_binary() {
        let body = b"line one\nline two\n\x00\xff";
        let mut wire = Vec::new();
        write_frame(&mut wire, "FRAG 0 2", body).unwrap();
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(frame.header, "FRAG 0 2");
        assert_eq!(frame.body, body);
    }

    #[test]
    fn malformed_lengths_are_rejected() {
        for wire in [
            &b"x5\nHELLO"[..],
            b"\nHELLO",
            b"9999999999\nHELLO",
            b"0\n",
            b"123456789012\nH",
        ] {
            let err = read_frame(&mut &wire[..]).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "{wire:?} -> {err}"
            );
        }
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, "BAD\nHEADER", b"").is_err());
    }

    #[test]
    fn handshake_versions_must_match_exactly() {
        let ok = parse_hello("HELLO dvmfarm/1 worker w1").unwrap();
        assert_eq!(ok.role, "worker");
        assert_eq!(ok.name, "w1");
        assert!(parse_hello("HELLO dvmfarm/2 worker w1")
            .unwrap_err()
            .contains("version mismatch"));
        assert!(parse_hello("HELLO otherproto/1 worker w1")
            .unwrap_err()
            .contains("not a dvmfarm peer"));
        assert!(parse_hello("HELLO dvmfarm/1 gardener w1")
            .unwrap_err()
            .contains("unknown role"));
        assert!(parse_hello("HELLO dvmfarm/1 worker").is_err());
        assert!(parse_hello("HELLO dvmfarm/1 worker bad name").is_err());
        assert_eq!(version_token(), "dvmfarm/1");
    }

    #[test]
    fn tokens_reject_separators() {
        assert!(is_token("fig2"));
        assert!(is_token("worker-1.local"));
        assert!(!is_token(""));
        assert!(!is_token("a b"));
        assert!(!is_token("a/b"));
        assert!(!is_token(&"x".repeat(65)));
    }

    #[test]
    fn progress_labels_are_the_final_parenthesized_text() {
        assert_eq!(
            progress_label("progress: shard 0/2 1/2 (BFS/FR 4K)"),
            Some("BFS/FR 4K")
        );
        assert_eq!(progress_label("progress: 3/9"), Some("3/9"));
        assert_eq!(progress_label("dataset-cache: hits=1"), None);
    }

    /// A fixed-seed xorshift64 stream (this crate has no dependencies, so
    /// the simulator's `DetRng` is not available here).
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }
    }

    /// Frames arrive from any peer that can connect, so the frame reader
    /// and the handshake parser must answer every truncation and byte
    /// flip of a valid frame with `Ok` or `Err` — never a panic.
    #[test]
    fn damaged_frames_never_panic() {
        const SEED: u64 = 0x00d1_5ea5_e5f4_a4e1;
        const CASES: usize = 20_000;
        let mut frames = Vec::new();
        for (header, body) in [
            ("DONE 3 1", &b"fragment bytes"[..]),
            ("READY", b""),
            ("FRAG 0 2", b"line one\nline two\n\x00\xff"),
            ("HELLO dvmfarm/1 worker w1", b""),
        ] {
            let mut wire = Vec::new();
            write_frame(&mut wire, header, body).unwrap();
            frames.push(wire);
        }
        let decode = |wire: &[u8]| {
            if let Ok(frame) = read_frame(&mut &wire[..]) {
                let _ = parse_hello(&frame.header);
            }
        };
        for wire in &frames {
            for cut in 0..wire.len() {
                assert!(
                    read_frame(&mut &wire[..cut]).is_err(),
                    "truncation at {cut} of {wire:?} accepted"
                );
            }
        }
        let mut rng = XorShift(SEED);
        for case in 0..CASES {
            let mut wire = frames[case % frames.len()].clone();
            for _ in 0..=rng.below(3) {
                let at = rng.below(wire.len());
                wire[at] ^= 1 << rng.below(8);
            }
            let outcome = std::panic::catch_unwind(|| decode(&wire));
            assert!(
                outcome.is_ok(),
                "seed {SEED:#x} case {case}: panic on {wire:?}"
            );
        }
    }

    #[test]
    fn long_lines_truncate_on_char_boundaries() {
        let ascii = "x".repeat(MAX_LINE + 100);
        assert_eq!(truncate_line(&ascii).len(), MAX_LINE);
        let multi = "é".repeat(MAX_LINE); // 2 bytes each
        let cut = truncate_line(&multi);
        assert!(cut.len() <= MAX_LINE);
        assert!(multi.is_char_boundary(cut.len()));
        assert_eq!(truncate_line("short"), "short");
    }
}
