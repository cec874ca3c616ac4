//! libpcap file export.
//!
//! Writes a [`crate::Trace`] as a classic libpcap capture (the format
//! produced by `tcpdump -w`), synthesizing IPv4 and TCP headers around each
//! simulated segment so Wireshark/tshark/tcptrace can open simulated
//! sessions directly.
//!
//! Conventions:
//! * Link type 101 (`LINKTYPE_RAW`): packets start at the IPv4 header.
//! * The client is `10.0.0.1`, the server `10.0.0.2`; the server listens on
//!   port 80 and the client uses port `49152 + conn`.
//! * Payload bytes are not materialized by the simulator, so packets are
//!   written *snapped* at the headers: `incl_len` covers the headers while
//!   `orig_len` reports the true on-wire size — exactly what `tcpdump -s 40`
//!   produces.
//! * 64-bit simulator sequence numbers are truncated to 32 bits (real TCP
//!   wraps too).
//! * Every SYN and SYN-ACK carries a window-scale option (NOP, then kind 3,
//!   length 3, shift [`WINDOW_SCALE`]), so its record is 4 bytes longer
//!   than the simulated SYN, which models no options. A SYN's own window is
//!   written unscaled and clamped to 65 535 (RFC 7323 §2.2 never scales
//!   it); every other window is written as `min(window >> 7, 0xffff)`,
//!   which an analyser scales back by the negotiated shift.

use std::io::{self, Write};

use crate::sink::{FLAG_FIN, FLAG_SYN};
use crate::trace::Trace;

const PCAP_MAGIC: u32 = 0xa1b2_c3d4; // microsecond timestamps
const LINKTYPE_RAW: u32 = 101;
const IP_HEADER_LEN: usize = 20;
const TCP_HEADER_LEN: usize = 20;
/// The SYN's option block: NOP, then window scale (kind 3, length 3).
const SYN_OPTIONS: [u8; 4] = [1, 3, 3, WINDOW_SCALE];

const CLIENT_IP: [u8; 4] = [10, 0, 0, 1];
const SERVER_IP: [u8; 4] = [10, 0, 0, 2];
const SERVER_PORT: u16 = 80;
const CLIENT_PORT_BASE: u16 = 49152;

/// Window scale shift announced in every SYN and applied to every other
/// record's window when clamping 64-bit simulated windows into the 16-bit
/// header field.
pub const WINDOW_SCALE: u8 = 7;

/// Largest payload a non-SYN record can carry and still fit the IPv4
/// total-length field: `65535 - 40` header bytes. A SYN record's option
/// block leaves it 4 bytes less.
pub const MAX_PCAP_PAYLOAD: u32 = (u16::MAX as u32) - (IP_HEADER_LEN + TCP_HEADER_LEN) as u32;

/// Writes `trace` to `w` in libpcap format.
///
/// # Errors
/// Propagates any I/O error from the underlying writer. Returns
/// [`io::ErrorKind::InvalidInput`] if a record's headers + payload exceed
/// 65535 bytes — the IPv4 total-length field is 16 bits, and truncating it
/// would emit a header Wireshark/tshark misparse. (The simulator segments
/// at MSS granularity, so this only fires on hand-built traces.)
pub fn write_pcap<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    write_global_header(&mut w)?;
    for p in trace.records() {
        let syn = p.flags & FLAG_SYN != 0;
        let options = if syn { SYN_OPTIONS.len() } else { 0 };
        let tcp_len = TCP_HEADER_LEN + options;
        let snap_len = IP_HEADER_LEN + tcp_len;
        let max_payload = MAX_PCAP_PAYLOAD - options as u32;
        if p.payload > max_payload {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "segment payload {} exceeds the {max_payload} bytes an IPv4 total-length field can describe",
                    p.payload
                ),
            ));
        }
        let (src_ip, dst_ip, src_port, dst_port) = if p.is_outgoing() {
            (CLIENT_IP, SERVER_IP, client_port(p.conn), SERVER_PORT)
        } else {
            (SERVER_IP, CLIENT_IP, SERVER_PORT, client_port(p.conn))
        };
        let total_len = snap_len + p.payload as usize;

        // Per-packet header.
        let nanos = p.at.as_nanos();
        w.write_all(&((nanos / 1_000_000_000) as u32).to_le_bytes())?;
        w.write_all(&((nanos % 1_000_000_000 / 1_000) as u32).to_le_bytes())?;
        w.write_all(&(snap_len as u32).to_le_bytes())?;
        w.write_all(&(total_len as u32).to_le_bytes())?;

        // IPv4 header.
        let mut ip = [0u8; IP_HEADER_LEN];
        ip[0] = 0x45; // version 4, IHL 5
        ip[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
        ip[8] = 64; // TTL
        ip[9] = 6; // TCP
        ip[12..16].copy_from_slice(&src_ip);
        ip[16..20].copy_from_slice(&dst_ip);
        let csum = ipv4_checksum(&ip);
        ip[10..12].copy_from_slice(&csum.to_be_bytes());
        w.write_all(&ip)?;

        // TCP header.
        let mut tcp = [0u8; TCP_HEADER_LEN];
        tcp[0..2].copy_from_slice(&src_port.to_be_bytes());
        tcp[2..4].copy_from_slice(&dst_port.to_be_bytes());
        tcp[4..8].copy_from_slice(&(p.seq as u32).to_be_bytes());
        tcp[8..12].copy_from_slice(&(p.ack_no as u32).to_be_bytes());
        tcp[12] = (tcp_len as u8 / 4) << 4; // data offset
        let mut flags = 0u8;
        if p.flags & FLAG_FIN != 0 {
            flags |= 0x01;
        }
        if syn {
            flags |= 0x02;
        }
        if p.is_ack() {
            flags |= 0x10;
        }
        tcp[13] = flags;
        let window = if syn { p.window } else { p.window >> WINDOW_SCALE };
        let window = window.min(u16::MAX as u64) as u16;
        tcp[14..16].copy_from_slice(&window.to_be_bytes());
        // Checksum left zero: the simulator has no payload bytes to sum, and
        // analysers treat zero as "offloaded", as with real captures.
        w.write_all(&tcp)?;
        if syn {
            w.write_all(&SYN_OPTIONS)?;
        }
    }
    Ok(())
}

fn write_global_header<W: Write>(w: &mut W) -> io::Result<()> {
    w.write_all(&PCAP_MAGIC.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&65535u32.to_le_bytes())?; // snaplen
    w.write_all(&LINKTYPE_RAW.to_le_bytes())?;
    Ok(())
}

fn client_port(conn: u32) -> u16 {
    CLIENT_PORT_BASE.wrapping_add((conn % 16_000) as u16)
}

fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let word = u16::from_be_bytes([chunk[0], *chunk.get(1).unwrap_or(&0)]);
        sum += word as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TapDirection;
    use vstream_sim::SimTime;
    use vstream_tcp::segment::SackBlocks;
    use vstream_tcp::Segment;

    /// Offset of [`sample_trace`]'s second record: the global header, then
    /// the SYN's record header and its 44 header bytes.
    const SECOND: usize = 24 + 16 + 44;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        let syn = Segment {
            conn: 3,
            seq: 0,
            ack_no: 0,
            window: 256 * 1024,
            payload: 0,
            syn: true,
            fin: false,
            ack: false,
            retx: false,
            sack: SackBlocks::EMPTY,
        };
        t.push(SimTime::from_millis(1), TapDirection::Outgoing, syn);
        let data = Segment {
            conn: 3,
            seq: 0,
            ack_no: 0,
            window: 64 * 1024,
            payload: 1460,
            syn: false,
            fin: false,
            ack: true,
            retx: false,
            sack: SackBlocks::EMPTY,
        };
        t.push(SimTime::from_millis(32), TapDirection::Incoming, data);
        t
    }

    #[test]
    fn global_header_is_well_formed() {
        let mut buf = Vec::new();
        write_pcap(&Trace::new(), &mut buf).unwrap();
        assert_eq!(buf.len(), 24);
        assert_eq!(&buf[0..4], &PCAP_MAGIC.to_le_bytes());
        assert_eq!(u32::from_le_bytes(buf[20..24].try_into().unwrap()), LINKTYPE_RAW);
    }

    #[test]
    fn packets_have_correct_lengths() {
        let mut buf = Vec::new();
        write_pcap(&sample_trace(), &mut buf).unwrap();
        // 24 global + (16 record header + 44 SYN headers) + (16 + 40).
        assert_eq!(buf.len(), 24 + (16 + 44) + (16 + 40));

        // First record: SYN with its option block, orig_len == incl_len ==
        // 44, and the IP total length agrees.
        let rec = &buf[24..];
        let incl = u32::from_le_bytes(rec[8..12].try_into().unwrap());
        let orig = u32::from_le_bytes(rec[12..16].try_into().unwrap());
        assert_eq!(incl, 44);
        assert_eq!(orig, 44);
        assert_eq!(u16::from_be_bytes([rec[16 + 2], rec[16 + 3]]), 44);

        // Second record: data, orig_len includes the 1460-byte payload.
        let rec2 = &buf[SECOND..];
        let incl2 = u32::from_le_bytes(rec2[8..12].try_into().unwrap());
        let orig2 = u32::from_le_bytes(rec2[12..16].try_into().unwrap());
        assert_eq!(incl2, 40);
        assert_eq!(orig2, 40 + 1460);
    }

    #[test]
    fn timestamps_are_microseconds() {
        let mut buf = Vec::new();
        write_pcap(&sample_trace(), &mut buf).unwrap();
        let rec = &buf[24..];
        let secs = u32::from_le_bytes(rec[0..4].try_into().unwrap());
        let micros = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        assert_eq!(secs, 0);
        assert_eq!(micros, 1_000);
    }

    #[test]
    fn ip_addresses_follow_direction() {
        let mut buf = Vec::new();
        write_pcap(&sample_trace(), &mut buf).unwrap();
        // First packet is outgoing: src 10.0.0.1, dst 10.0.0.2.
        let ip = &buf[24 + 16..];
        assert_eq!(&ip[12..16], &CLIENT_IP);
        assert_eq!(&ip[16..20], &SERVER_IP);
        // Second packet is incoming: reversed.
        let ip2 = &buf[SECOND + 16..];
        assert_eq!(&ip2[12..16], &SERVER_IP);
        assert_eq!(&ip2[16..20], &CLIENT_IP);
    }

    #[test]
    fn tcp_flags_are_encoded() {
        let mut buf = Vec::new();
        write_pcap(&sample_trace(), &mut buf).unwrap();
        let tcp = &buf[24 + 16 + IP_HEADER_LEN..];
        assert_eq!(tcp[13], 0x02, "SYN flag");
        let tcp2 = &buf[SECOND + 16 + IP_HEADER_LEN..];
        assert_eq!(tcp2[13], 0x10, "ACK flag");
    }

    #[test]
    fn ipv4_checksum_verifies() {
        let mut buf = Vec::new();
        write_pcap(&sample_trace(), &mut buf).unwrap();
        let ip = &buf[24 + 16..24 + 16 + IP_HEADER_LEN];
        // Summing a header including its checksum yields 0xffff -> !0 == 0.
        let mut sum = 0u32;
        for chunk in ip.chunks(2) {
            sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        assert_eq!(sum, 0xffff);
    }

    #[test]
    fn oversized_payload_is_rejected_at_the_boundary() {
        let packet = |payload: u32, syn: bool| {
            let mut t = Trace::new();
            t.push(
                SimTime::from_millis(1),
                TapDirection::Incoming,
                Segment {
                    conn: 0,
                    seq: 0,
                    ack_no: 0,
                    window: 64 * 1024,
                    payload,
                    syn,
                    fin: false,
                    ack: true,
                    retx: false,
                    sack: SackBlocks::EMPTY,
                },
            );
            t
        };
        // 65495 + 40 header bytes == 65535: exactly representable.
        let mut buf = Vec::new();
        write_pcap(&packet(MAX_PCAP_PAYLOAD, false), &mut buf).unwrap();
        let ip = &buf[24 + 16..];
        assert_eq!(u16::from_be_bytes([ip[2], ip[3]]), u16::MAX);

        // One byte more must be an InvalidInput error, not a wrapped header.
        let err = write_pcap(&packet(MAX_PCAP_PAYLOAD + 1, false), &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        // A SYN's option block moves the boundary down by its 4 bytes.
        let syn_max = MAX_PCAP_PAYLOAD - SYN_OPTIONS.len() as u32;
        write_pcap(&packet(syn_max, true), &mut Vec::new()).unwrap();
        let err = write_pcap(&packet(syn_max + 1, true), &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn syn_ack_window_fits_unscaled() {
        let mut t = Trace::new();
        let synack = Segment {
            conn: 0,
            seq: 0,
            ack_no: 1,
            window: 40_000,
            payload: 0,
            syn: true,
            fin: false,
            ack: true,
            retx: false,
            sack: SackBlocks::EMPTY,
        };
        t.push(SimTime::from_millis(1), TapDirection::Incoming, synack);
        let mut buf = Vec::new();
        write_pcap(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), 24 + 16 + 44);
        let tcp = &buf[24 + 16 + IP_HEADER_LEN..];
        assert_eq!(tcp[13], 0x12, "SYN + ACK");
        assert_eq!(&tcp[TCP_HEADER_LEN..], &SYN_OPTIONS);
        assert_eq!(u16::from_be_bytes([tcp[14], tcp[15]]), 40_000);
    }

    #[test]
    fn window_is_scaled_and_clamped() {
        let mut buf = Vec::new();
        write_pcap(&sample_trace(), &mut buf).unwrap();
        let tcp = &buf[SECOND + 16 + IP_HEADER_LEN..];
        let window = u16::from_be_bytes([tcp[14], tcp[15]]);
        assert_eq!(window as u64, (64 * 1024) >> WINDOW_SCALE);
    }

    #[test]
    fn syn_announces_the_window_scale_and_keeps_its_window_unscaled() {
        let mut buf = Vec::new();
        write_pcap(&sample_trace(), &mut buf).unwrap();
        let tcp = &buf[24 + 16 + IP_HEADER_LEN..SECOND];
        assert_eq!(tcp[12] >> 4, 6, "data offset covers the option block");
        assert_eq!(&tcp[TCP_HEADER_LEN..], &[1, 3, 3, WINDOW_SCALE], "NOP + window scale 7");
        // 256 KiB does not fit 16 bits unscaled: the SYN's window clamps.
        assert_eq!(u16::from_be_bytes([tcp[14], tcp[15]]), u16::MAX);

        // The data record after it: no options, window shifted by 7.
        let tcp2 = &buf[SECOND + 16 + IP_HEADER_LEN..];
        assert_eq!(tcp2[12] >> 4, 5);
        let window = u16::from_be_bytes([tcp2[14], tcp2[15]]) as u64;
        assert_eq!(window << WINDOW_SCALE, 64 * 1024);
    }
}
