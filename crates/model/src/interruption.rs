//! §6.2: video downloads interrupted by lack of interest.
//!
//! A user abandons the `n`-th video after watching a fraction `β` of its
//! duration `L`. With buffering amount `B` (equivalently `B′ = B/e` seconds
//! of playback) and accumulation ratio `k`, the bytes downloaded by the
//! interrupt are `min(B + G·τ, e·L)` while only `e·τ` were watched — the
//! difference is pure waste (Eq. 8). Expressed in playback terms this yields
//! Eq. (9), and Eq. (7) gives the condition under which the video was *not*
//! yet fully downloaded when abandoned.

/// The shortest video duration that is fully downloaded before a viewer who
/// watches a fraction `beta` gives up, per Eq. (7): `L = B′ / (1 − k·β)`.
///
/// With the paper's YouTube-Flash numbers (`B′ = 40 s`, `k = 1.25`,
/// `β = 0.2`) this is 53.3 s: any Flash video shorter than that is fully
/// downloaded even though the viewer watches only a fifth of it.
///
/// Returns `f64::INFINITY` when `k·β ≥ 1` (the download outpaces every
/// interruption, so every video completes).
pub fn full_download_duration_threshold(buffer_playback_secs: f64, accumulation: f64, beta: f64) -> f64 {
    assert!(buffer_playback_secs >= 0.0);
    assert!(accumulation >= 0.0);
    assert!((0.0..=1.0).contains(&beta), "beta is a fraction of the video");
    let denom = 1.0 - accumulation * beta;
    if denom <= 0.0 {
        f64::INFINITY
    } else {
        buffer_playback_secs / denom
    }
}

/// Unused bytes for one interrupted session (the inner term of Eq. 8/9):
/// `min(B′·e + k·e·β·L, e·L) − e·β·L`, all arguments in natural units.
pub fn unused_bytes(
    encoding_bps: f64,
    duration_secs: f64,
    buffer_playback_secs: f64,
    accumulation: f64,
    beta: f64,
) -> f64 {
    assert!((0.0..=1.0).contains(&beta));
    let watched_secs = beta * duration_secs;
    let downloaded_playback = (buffer_playback_secs + accumulation * watched_secs).min(duration_secs);
    // Bits, then bytes.
    (encoding_bps * (downloaded_playback - watched_secs)).max(0.0) / 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_53_seconds() {
        // §6.2: B' = 40 s, k = 1.25, beta = 0.2 -> L = 53.3 s.
        let l = full_download_duration_threshold(40.0, 1.25, 0.2);
        assert!((l - 53.333).abs() < 0.01, "L = {l:.3}");
    }

    #[test]
    fn aggressive_accumulation_downloads_everything() {
        // k*beta >= 1: the steady state outruns playback entirely.
        assert_eq!(full_download_duration_threshold(10.0, 5.0, 0.2), f64::INFINITY);
    }

    #[test]
    fn unused_bytes_basic_accounting() {
        // 1 Mbps video, 100 s long, B' = 40 s, k = 1.25, watched 20 %.
        // Downloaded playback = min(40 + 1.25*20, 100) = 65 s; watched 20 s;
        // waste = 45 s of playback = 45 * 125000 bytes.
        let waste = unused_bytes(1e6, 100.0, 40.0, 1.25, 0.2);
        assert!((waste - 45.0 * 125_000.0).abs() < 1.0, "waste = {waste}");
    }

    #[test]
    fn short_video_waste_caps_at_full_size() {
        // 50 s video (below the 53.3 s threshold): fully downloaded.
        let waste = unused_bytes(1e6, 50.0, 40.0, 1.25, 0.2);
        // Downloaded = whole 50 s; watched 10 s; waste = 40 s of playback.
        assert!((waste - 40.0 * 125_000.0).abs() < 1.0);
    }

    #[test]
    fn watching_everything_wastes_only_the_buffer_overshoot() {
        let waste = unused_bytes(1e6, 100.0, 40.0, 1.25, 1.0);
        // Downloaded playback = min(40 + 125, 100) = 100; watched 100 -> 0.
        assert_eq!(waste, 0.0);
    }

    #[test]
    fn smaller_buffer_wastes_less() {
        let big = unused_bytes(1e6, 300.0, 40.0, 1.25, 0.2);
        let small = unused_bytes(1e6, 300.0, 10.0, 1.25, 0.2);
        assert!(small < big);
    }

    #[test]
    fn smaller_accumulation_wastes_less() {
        let aggressive = unused_bytes(1e6, 300.0, 40.0, 2.0, 0.2);
        let gentle = unused_bytes(1e6, 300.0, 40.0, 1.05, 0.2);
        assert!(gentle < aggressive);
    }
}
