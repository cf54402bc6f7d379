//! Checkpoint corruption fuzzing: every torn, truncated, or
//! bit-flipped log must be *detected and classified*, never silently
//! loaded. This is the corpus CI's `checkpoint-fuzz` leg replays.
//!
//! The corpus is generated deterministically (seeded splitmix64, the
//! workspace fault-injection scheme) so a failure reproduces exactly
//! from the printed seed.

use moloc_core::error::DegradationFlags;
use moloc_core::tracker::MotionMeasurement;
use moloc_faults::rng::{hash, unit};
use moloc_geometry::LocationId;
use moloc_session::checkpoint::{frame_record, read_log, scan_records, CheckpointState};
use moloc_session::reorder::ReorderStats;
use moloc_session::ScanEvent;

const SEED: u64 = 2013;

fn state(i: u64) -> CheckpointState {
    let posterior: Vec<(LocationId, f64)> = (1..=3)
        .map(|j| {
            (
                LocationId::new(j as u32 + i as u32),
                unit(hash(SEED, i, j, 0)),
            )
        })
        .collect();
    CheckpointState {
        ingested: 10 * i + 7,
        delivered: 10 * i + 3,
        watermark: 10 * i + 5,
        epoch: i,
        stats: ReorderStats {
            delivered: 10 * i + 3,
            duplicates_dropped: i,
            late_dropped: i / 2,
            gaps_skipped: 2 * i,
        },
        has_previous: true,
        flags: DegradationFlags::from_bits((i & 0xF) as u8),
        posterior,
        pending: vec![ScanEvent {
            event_id: 100 + i,
            seq: 10 * i + 6,
            scan: vec![-40.0 - i as f64, f64::NAN, -60.0],
            motion: Some(MotionMeasurement {
                direction_deg: 45.0 * i as f64,
                offset_m: 1.5,
            }),
        }],
    }
}

/// Bit-exact state equality: the derived `PartialEq` is useless here
/// because scans legitimately carry NaN (unheard APs), and NaN != NaN.
fn same_state(a: &CheckpointState, b: &CheckpointState) -> bool {
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a.ingested == b.ingested
        && a.delivered == b.delivered
        && a.watermark == b.watermark
        && a.epoch == b.epoch
        && a.stats == b.stats
        && a.has_previous == b.has_previous
        && a.flags == b.flags
        && a.posterior.len() == b.posterior.len()
        && a.posterior
            .iter()
            .zip(&b.posterior)
            .all(|(&(la, pa), &(lb, pb))| la == lb && pa.to_bits() == pb.to_bits())
        && a.pending.len() == b.pending.len()
        && a.pending.iter().zip(&b.pending).all(|(ea, eb)| {
            ea.event_id == eb.event_id
                && ea.seq == eb.seq
                && ea.motion == eb.motion
                && bits(&ea.scan) == bits(&eb.scan)
        })
}

fn build_log(n: u64) -> (Vec<u8>, Vec<CheckpointState>) {
    let states: Vec<CheckpointState> = (0..n).map(state).collect();
    let mut log = Vec::new();
    let mut boundaries = vec![0usize];
    for s in &states {
        log.extend_from_slice(&frame_record(&s.encode().expect("encodes")));
        boundaries.push(log.len());
    }
    (log, states)
}

/// The recovered state after corruption must be one of the states
/// actually written — a mutated record may be rejected, never
/// *mutated-and-accepted*.
fn assert_recovers_only_written_states(bytes: &[u8], states: &[CheckpointState], context: &str) {
    let (payloads, report) = scan_records(bytes);
    let mut recovered = None;
    let mut undecodable = 0;
    for payload in payloads.iter().rev() {
        match CheckpointState::decode(payload) {
            Some(s) => {
                recovered = Some(s);
                break;
            }
            None => undecodable += 1,
        }
    }
    if let Some(s) = &recovered {
        assert!(
            states.iter().any(|orig| same_state(orig, s)),
            "{context}: recovered a state that was never written (silent corruption!)"
        );
    }
    // Anything short of the full clean log must be flagged.
    let clean = report.valid_records == states.len()
        && report.corruption.is_none()
        && undecodable == 0
        && report.valid_bytes == bytes.len() as u64;
    let latest_recovered = match (&recovered, states.last()) {
        (Some(r), Some(last)) => same_state(r, last),
        _ => false,
    };
    if bytes.len()
        != states
            .iter()
            .map(|s| frame_record(&s.encode().expect("encodes")).len())
            .sum::<usize>()
        || !latest_recovered
    {
        assert!(
            !clean,
            "{context}: corrupted log scanned clean without recovering the latest state"
        );
    }
}

#[test]
fn truncation_at_every_byte_is_detected_or_lands_on_a_boundary() {
    let (log, states) = build_log(3);
    let record_lens: Vec<usize> = states
        .iter()
        .map(|s| frame_record(&s.encode().expect("encodes")).len())
        .collect();
    let mut boundaries = vec![0usize];
    for len in &record_lens {
        boundaries.push(boundaries.last().copied().expect("nonempty") + len);
    }
    for cut in 0..log.len() {
        let (payloads, report) = scan_records(&log[..cut]);
        let at_boundary = boundaries.contains(&cut);
        if at_boundary {
            assert_eq!(report.corruption, None, "clean prefix at {cut}");
        } else {
            assert!(
                report.corruption.is_some(),
                "torn tail at {cut} not reported"
            );
        }
        // Whatever survived is a verbatim prefix of what was written.
        for (i, payload) in payloads.iter().enumerate() {
            let decoded = CheckpointState::decode(payload).expect("surviving record decodes");
            assert!(
                same_state(&decoded, &states[i]),
                "cut at {cut}: surviving record {i} mutated"
            );
        }
        assert_recovers_only_written_states(&log[..cut], &states, &format!("cut {cut}"));
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    let (log, states) = build_log(2);
    for byte in 0..log.len() {
        for bit in 0..8u8 {
            let mut mutated = log.clone();
            mutated[byte] ^= 1 << bit;
            let (_, report) = scan_records(&mutated);
            assert!(
                report.corruption.is_some() || report.valid_records < states.len(),
                "seed {SEED}: flip at byte {byte} bit {bit} scanned clean"
            );
            assert_recovers_only_written_states(
                &mutated,
                &states,
                &format!("seed {SEED} flip byte {byte} bit {bit}"),
            );
        }
    }
}

#[test]
fn random_multi_byte_corruption_never_silently_loads() {
    let (log, states) = build_log(3);
    for case in 0..500u64 {
        let mut mutated = log.clone();
        let burst = 1 + (hash(SEED, case, 0, 0) % 16) as usize;
        for j in 0..burst {
            let pos = (hash(SEED, case, 1, j as u64) % log.len() as u64) as usize;
            mutated[pos] ^= (hash(SEED, case, 2, j as u64) % 255) as u8 + 1;
        }
        assert_recovers_only_written_states(
            &mutated,
            &states,
            &format!("seed {SEED} burst case {case}"),
        );
    }
}

/// A corrupted posterior length that survives checksumming (an
/// attacker-or-bitrot-controlled u32 re-framed into a valid record)
/// must be rejected by `decode` without a proportional preallocation:
/// `Vec::with_capacity(plen)` on an unclamped `u32::MAX` would ask the
/// allocator for 48 GiB before the first entry read fails.
#[test]
fn huge_checksummed_posterior_length_is_rejected_without_allocation() {
    let payload = state(1).encode().expect("encodes");
    // Payload layout: 8 u64 counters (64 bytes), has_previous (1),
    // flags (1), then the posterior length at offset 66.
    const PLEN_OFFSET: usize = 66;
    let plen = u32::from_le_bytes(payload[PLEN_OFFSET..PLEN_OFFSET + 4].try_into().unwrap());
    assert_eq!(plen, 3, "fixture layout moved; update PLEN_OFFSET");
    for huge in [u32::MAX, u32::MAX / 12, 1 << 24] {
        let mut mutated = payload.clone();
        mutated[PLEN_OFFSET..PLEN_OFFSET + 4].copy_from_slice(&huge.to_le_bytes());
        // Re-frame so the checksum is *valid*: framing-level scans must
        // accept the record and hand the hostile payload to decode.
        let record = frame_record(&mutated);
        let (payloads, report) = scan_records(&record);
        assert_eq!(payloads.len(), 1, "checksummed frame must scan");
        assert_eq!(report.corruption, None);
        assert!(
            CheckpointState::decode(&payloads[0]).is_none(),
            "plen {huge} decoded"
        );
    }
}

/// A posterior probability that survives checksumming but is not a
/// probability (re-framed into a valid record) must be rejected by
/// `decode`: `StreamingSession::restore` would otherwise seed Eq. 7
/// with a NaN, infinite or negative prior.
#[test]
fn non_probability_posterior_behind_valid_checksum_is_rejected() {
    let payload = state(1).encode().expect("encodes");
    // The first posterior entry follows the length at offset 66: a u32
    // location id, then the probability's IEEE-754 bits.
    const P0_OFFSET: usize = 66 + 4 + 4;
    let p0 = f64::from_bits(u64::from_le_bytes(
        payload[P0_OFFSET..P0_OFFSET + 8].try_into().unwrap(),
    ));
    assert_eq!(
        p0,
        state(1).posterior[0].1,
        "fixture layout moved; update P0_OFFSET"
    );
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.25] {
        let mut mutated = payload.clone();
        mutated[P0_OFFSET..P0_OFFSET + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
        let record = frame_record(&mutated);
        let (payloads, report) = scan_records(&record);
        assert_eq!(payloads.len(), 1, "checksummed frame must scan");
        assert_eq!(report.corruption, None);
        assert!(
            CheckpointState::decode(&payloads[0]).is_none(),
            "posterior probability {bad} decoded"
        );
    }
}

#[test]
fn random_garbage_is_rejected_not_decoded() {
    for case in 0..200u64 {
        let len = (hash(SEED, case, 9, 0) % 256) as usize;
        let garbage: Vec<u8> = (0..len)
            .map(|i| (hash(SEED, case, 10, i as u64) & 0xFF) as u8)
            .collect();
        let (payloads, report) = scan_records(&garbage);
        assert!(payloads.is_empty(), "garbage case {case} framed a record");
        if !garbage.is_empty() {
            assert!(
                report.corruption.is_some(),
                "garbage case {case} not reported"
            );
        }
    }
}

#[test]
fn read_log_surfaces_corruption_from_disk() {
    let dir = std::env::temp_dir().join("moloc-session-fuzz-io");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("corrupt.mlck");
    let (log, states) = build_log(2);
    // Torn tail: second record half-written.
    let cut = frame_record(&states[0].encode().expect("encodes")).len() + 11;
    std::fs::write(&path, &log[..cut]).expect("write");
    let (recovered, report) = read_log(&path).expect("read");
    let recovered = recovered.expect("first record survives");
    assert!(same_state(&recovered, &states[0]));
    assert!(report.corruption.is_some());
    std::fs::remove_file(&path).ok();
}
