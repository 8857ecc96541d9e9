//! Seeded fuzz of the `lts-state/v4` framing: whatever a snapshot file
//! holds, `state::load` returns `Ok` or a [`StateError`] — never a
//! panic — and an unmutated snapshot round-trips byte for byte.
//!
//! The cases are std-only and fixed-seed, so every run replays the same
//! ≈ 230 files: a real snapshot (a monolithic and a `+pf` warm state,
//! their cached answers) truncated at every line boundary, raw and
//! re-sealed; one byte flipped and the checksum re-sealed; one ordering
//! entry rewritten and re-sealed; and the warm-state lines' grammar
//! broken and re-sealed — an entry re-tagged with a tag this build does
//! not read, a `state` line dropped or doubled, an `entry` line doubled.

use lts_serve::state;
use lts_serve::{DatasetSpec, Request, Service, ServiceConfig, StateError, Target};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Flipped-byte cases.
const FLIPS: usize = 128;
/// Rewritten-ordering cases.
const REWRITES: usize = 56;

/// SplitMix64: a fixed, std-only stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lts_state_fuzz_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The snapshot every case mutates: 600 sports rows, one monolithic and
/// one prefiltered warm state, both cached.
fn snapshot(dir: &Path) -> String {
    let mut service = Service::new(ServiceConfig::default());
    let spec = DatasetSpec {
        kind: "sports".into(),
        rows: 600,
        level: "M".into(),
        seed: 3,
    };
    service.register_generated("s", &spec).unwrap();
    for (id, condition) in [
        "strikeouts < 120",
        "strikeouts < 60 AND (SELECT COUNT(*) FROM s WHERE wins >= o.wins) < 300",
    ]
    .into_iter()
    .enumerate()
    {
        let response = service.run(Request {
            id: id as u64,
            dataset: "s".into(),
            condition: condition.into(),
            target: Target::Budget(150),
            fresh: false,
        });
        assert!(response.ok, "{:?}", response.error);
    }
    let path = state::save(&service, dir).unwrap();
    fs::read_to_string(path).unwrap()
}

/// `body` sealed with its checksum trailer, as any writer can.
fn sealed(body: &str) -> String {
    format!(
        "{body}checksum\t{:016x}\n",
        lts_core::fnv1a(body.as_bytes())
    )
}

/// Load `bytes` as the snapshot under `dir` into a fresh service: `Ok`
/// or a [`StateError`], and a panic names the case.
fn load(dir: &Path, bytes: &[u8], case: &str) -> Result<Service, StateError> {
    fs::write(dir.join(lts_serve::STATE_FILE), bytes).unwrap();
    let mut service = Service::new(ServiceConfig::default());
    match catch_unwind(AssertUnwindSafe(|| state::load(&mut service, dir))) {
        Ok(result) => result.map(|_| service),
        Err(_) => panic!("state::load panicked on {case}"),
    }
}

#[test]
fn an_unmutated_snapshot_round_trips_byte_for_byte() {
    let dir = temp_dir("roundtrip");
    let good = snapshot(&dir);
    assert_eq!(good.matches("\tlss+pf\t").count(), 1, "a `+pf` state");
    assert_eq!(good.matches("\nstore\tstate\t").count(), 2);
    let restored = load(&dir, good.as_bytes(), "the unmutated snapshot").unwrap();
    let again = temp_dir("roundtrip_again");
    let path = state::save(&restored, &again).unwrap();
    assert_eq!(fs::read_to_string(path).unwrap(), good);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&again);
}

#[test]
fn mutated_snapshots_load_or_error_and_never_panic() {
    let dir = temp_dir("mutated");
    let good = snapshot(&dir);
    let body = &good[..good.rfind("checksum\t").unwrap()];
    let lines: Vec<&str> = body.lines().collect();
    let mut cases = 0usize;
    let mut refused = 0usize;
    let mut tally = |r: Result<Service, StateError>| {
        cases += 1;
        refused += usize::from(r.is_err());
    };

    // Truncated at every line boundary: torn (no trailer) and re-sealed.
    for keep in 0..=lines.len() {
        let prefix: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        let case = format!("the first {keep} lines");
        let torn = load(&dir, prefix.as_bytes(), &case);
        assert!(torn.is_err(), "{case}, unsealed, loaded");
        tally(torn);
        tally(load(
            &dir,
            sealed(&prefix).as_bytes(),
            &format!("{case}, re-sealed"),
        ));
    }

    // One byte flipped (by a non-zero mask), re-sealed.
    let mut stream = Stream(0x5EED_F022);
    for _ in 0..FLIPS {
        let mut bytes = body.as_bytes().to_vec();
        let at = stream.below(bytes.len());
        let mask = 1 + stream.below(255) as u8;
        bytes[at] ^= mask;
        let mut file = bytes.clone();
        let sum = lts_core::fnv1a(&bytes);
        file.extend_from_slice(format!("checksum\t{sum:016x}\n").as_bytes());
        tally(load(&dir, &file, &format!("byte {at} ^ {mask:#04x}")));
    }

    // One ordering entry rewritten, re-sealed: a random id, an id past
    // the end, a real id plus 2³², or one that overflows `usize`.
    let states: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("store\tstate\t"))
        .collect();
    for _ in 0..REWRITES {
        let line = states[stream.below(states.len())];
        let mut fields: Vec<String> = lines[line].split('\t').map(str::to_string).collect();
        let mut order: Vec<String> = fields[8].split(',').map(str::to_string).collect();
        let i = stream.below(order.len());
        let id: u64 = order[i].parse().unwrap();
        let to = match stream.below(4) {
            0 => (stream.next() % 1_200).to_string(),
            1 => (600 + stream.next() % 8).to_string(),
            2 => (id + (1 << 32)).to_string(),
            _ => format!("{}{}", u64::MAX, stream.below(10)),
        };
        order[i] = to.clone();
        fields[8] = order.join(",");
        let mut edited = lines.clone();
        let rewritten = fields.join("\t");
        edited[line] = &rewritten;
        let text: String = edited.iter().map(|l| format!("{l}\n")).collect();
        let case = format!("ordering entry {i} of line {line} set to {to}");
        let result = load(&dir, sealed(&text).as_bytes(), &case);
        // Any value but the one it replaced repeats an id or leaves the
        // population: never a restored state.
        assert!(to == id.to_string() || result.is_err(), "{case} restored");
        tally(result);
    }

    // The warm-state lines' grammar, re-sealed: every entry re-tagged
    // with a tag this build does not read, and a `state` line dropped or
    // doubled, an `entry` line doubled.
    let entries: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("store\tentry\t"))
        .collect();
    let refuse = |text: String, case: &str| {
        let result = load(&dir, sealed(&text).as_bytes(), case);
        assert!(result.is_err(), "{case} restored");
        result
    };
    for &line in &entries {
        let fields: Vec<&str> = lines[line].split('\t').collect();
        for tag in [
            "lss@4", "lss@0", "lss@x", "nope@4", "lss+pf@4", "lws", "lws@4", "LSS", "",
        ] {
            let mut edited: Vec<String> = lines.iter().map(|l| format!("{l}\n")).collect();
            let mut retagged = fields.clone();
            retagged[5] = tag;
            edited[line] = format!("{}\n", retagged.join("\t"));
            let case = format!("line {line} tagged `{tag}`");
            tally(refuse(edited.concat(), &case));
        }
    }
    for (kind, at) in
        (entries.iter().map(|&i| ("entry", i))).chain(states.iter().map(|&i| ("state", i)))
    {
        let mut edited: Vec<String> = lines.iter().map(|l| format!("{l}\n")).collect();
        edited.insert(at, edited[at].clone());
        tally(refuse(
            edited.concat(),
            &format!("{kind} line {at} doubled"),
        ));
        if kind == "state" {
            let mut edited: Vec<String> = lines.iter().map(|l| format!("{l}\n")).collect();
            edited.remove(at);
            tally(refuse(edited.concat(), &format!("state line {at} dropped")));
        }
    }

    assert!(cases >= 200, "{cases} cases");
    assert!(refused > cases / 2, "only {refused} of {cases} refused");
    let _ = fs::remove_dir_all(&dir);
}
