//! pcap export of a real simulated session: the file must be structurally
//! valid libpcap that an external tool could open.

use vstream::SessionSpec;
use vstream_app::Video;
use vstream_capture::pcap::write_pcap;
use vstream_net::NetworkProfile;
use vstream_sim::SimDuration;
use vstream_workload::{Client, Container};

#[test]
fn session_exports_valid_pcap() {
    let out = SessionSpec::new(
        Client::InternetExplorer,
        Container::Html5,
        Video::new(1, 1_000_000, SimDuration::from_secs(300)),
        NetworkProfile::Research,
        71,
        SimDuration::from_secs(30),
    )
    .run()
    .unwrap();

    let mut buf = Vec::new();
    write_pcap(&out.trace, &mut buf).unwrap();

    // Global header.
    assert!(buf.len() > 24);
    assert_eq!(&buf[0..4], &0xa1b2_c3d4u32.to_le_bytes());
    let snaplen = u32::from_le_bytes(buf[16..20].try_into().unwrap());
    assert_eq!(snaplen, 65535);

    // Walk every record; counts and offsets must be self-consistent.
    let mut offset = 24;
    let mut packets = 0usize;
    let mut last_ts = (0u32, 0u32);
    while offset < buf.len() {
        assert!(offset + 16 <= buf.len(), "truncated record header");
        let secs = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap());
        let micros = u32::from_le_bytes(buf[offset + 4..offset + 8].try_into().unwrap());
        let incl = u32::from_le_bytes(buf[offset + 8..offset + 12].try_into().unwrap()) as usize;
        let orig = u32::from_le_bytes(buf[offset + 12..offset + 16].try_into().unwrap()) as usize;
        assert!(micros < 1_000_000, "bad microseconds field");
        assert!(incl >= 40, "snapped below the headers");
        assert!(orig >= incl, "orig_len smaller than incl_len");
        // Timestamps are monotone.
        assert!((secs, micros) >= last_ts, "timestamps went backwards");
        last_ts = (secs, micros);
        // The IP header parses: version 4, protocol TCP.
        let ip = &buf[offset + 16..offset + 16 + 20];
        assert_eq!(ip[0] >> 4, 4, "not IPv4");
        assert_eq!(ip[9], 6, "not TCP");
        offset += 16 + incl;
        packets += 1;
    }
    assert_eq!(offset, buf.len(), "trailing garbage");
    assert_eq!(packets, out.trace.len(), "packet count mismatch");
}

#[test]
fn multi_connection_session_uses_distinct_ports() {
    let out = SessionSpec::new(
        Client::Ipad,
        Container::Html5,
        Video::new(1, 2_000_000, SimDuration::from_secs(600)),
        NetworkProfile::Research,
        73,
        SimDuration::from_secs(40),
    )
    .run()
    .unwrap();
    assert!(out.connections > 1);

    let mut buf = Vec::new();
    write_pcap(&out.trace, &mut buf).unwrap();

    // Collect the distinct client ports present in the capture.
    let mut ports = std::collections::BTreeSet::new();
    let mut offset = 24;
    while offset < buf.len() {
        let incl = u32::from_le_bytes(buf[offset + 8..offset + 12].try_into().unwrap()) as usize;
        let ip = &buf[offset + 16..];
        let src = [ip[12], ip[13], ip[14], ip[15]];
        let tcp = &ip[20..];
        let (sport, dport) = (
            u16::from_be_bytes([tcp[0], tcp[1]]),
            u16::from_be_bytes([tcp[2], tcp[3]]),
        );
        // The client is 10.0.0.1.
        let client_port = if src == [10, 0, 0, 1] { sport } else { dport };
        ports.insert(client_port);
        offset += 16 + incl;
    }
    assert_eq!(
        ports.len(),
        out.connections,
        "one client port per TCP connection"
    );
}

#[test]
fn syn_records_carry_the_window_scale_option() {
    let out = SessionSpec::new(
        Client::Ipad,
        Container::Html5,
        Video::new(1, 2_000_000, SimDuration::from_secs(600)),
        NetworkProfile::Research,
        73,
        SimDuration::from_secs(40),
    )
    .run()
    .unwrap();
    let mut buf = Vec::new();
    write_pcap(&out.trace, &mut buf).unwrap();

    let (mut syns, mut others) = (0usize, 0usize);
    let mut offset = 24;
    while offset < buf.len() {
        let incl = u32::from_le_bytes(buf[offset + 8..offset + 12].try_into().unwrap()) as usize;
        let orig = u32::from_le_bytes(buf[offset + 12..offset + 16].try_into().unwrap()) as usize;
        let ip = &buf[offset + 16..offset + 16 + incl];
        assert_eq!(u16::from_be_bytes([ip[2], ip[3]]) as usize, orig, "IP total length");
        let tcp = &ip[20..];
        let data_offset = (tcp[12] >> 4) as usize;
        assert_eq!(20 + data_offset * 4, incl, "headers are snapped at the TCP header end");
        if tcp[13] & 0x02 != 0 {
            assert_eq!(data_offset, 6, "a SYN carries one option word");
            assert_eq!(&tcp[20..24], &[1, 3, 3, 7], "NOP + window scale, shift 7");
            syns += 1;
        } else {
            assert_eq!(data_offset, 5, "only SYNs carry options");
            others += 1;
        }
        offset += 16 + incl;
    }
    // At least a SYN and a SYN-ACK per connection.
    assert!(syns >= 2 * out.connections, "{syns} SYN records, {} connections", out.connections);
    assert_eq!(syns + others, out.trace.len());
}
