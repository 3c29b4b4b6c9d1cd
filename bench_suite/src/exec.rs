//! Issues operations against the engine or the server and checks every
//! answer.
//!
//! Nothing is taken on trust: a read must return exactly `value(id)` (or
//! nothing, for an id nobody wrote), a checked insert must give the
//! answer the generator knows, and a scan must start at the key it was
//! asked for and return strictly ascending rows that each map back to
//! an id and carry that id's value.

use std::time::Duration;

use blsm::{ReadView, ThreadedBLsm};
use blsm_server::{Client, Request, Response};

use crate::gen::{Keyspace, Op};

/// Why an operation did not count as correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The store or the transport returned an error.
    Error,
    /// The server still refused the write after the client's retries, or
    /// the open-loop generator shed it unsent.
    Refused,
    /// An answer came back and it was not the right one.
    Wrong,
    /// A write was acknowledged and is not there afterwards.
    Lost,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    pub errors: u64,
    pub refused: u64,
    pub wrong: u64,
    pub lost: u64,
}

impl Failures {
    pub fn add(&mut self, f: Failure, n: u64) {
        match f {
            Failure::Error => self.errors += n,
            Failure::Refused => self.refused += n,
            Failure::Wrong => self.wrong += n,
            Failure::Lost => self.lost += n,
        }
    }

    pub fn merge(&mut self, other: &Failures) {
        self.errors += other.errors;
        self.refused += other.refused;
        self.wrong += other.wrong;
        self.lost += other.lost;
    }

    pub fn total(&self) -> u64 {
        self.errors + self.refused + self.wrong + self.lost
    }
}

pub fn check_get(ks: &Keyspace, id: u64, present: bool, got: Option<&[u8]>) -> bool {
    match got {
        Some(v) => present && v == ks.value(id),
        None => !present,
    }
}

/// Checks a scan that started at the key of written id `from`. A scan
/// that starts in the last 1/256 of the keyspace may run off its end and
/// return fewer rows than asked; everywhere else it must return them all.
pub fn check_scan<'a>(
    ks: &Keyspace,
    from: u64,
    want_rows: u32,
    rows: impl ExactSizeIterator<Item = (&'a [u8], &'a [u8])>,
) -> bool {
    let start = ks.key(from);
    let n = rows.len();
    if n > want_rows as usize || (n < want_rows as usize && start[0] != 0xff) {
        return false;
    }
    let mut prev: Option<&[u8]> = None;
    for (key, value) in rows {
        let in_order = match prev {
            None => key == start,
            Some(p) => p < key,
        };
        let Some(id) = ks.id_of(key) else {
            return false;
        };
        if !in_order || value != ks.value(id) {
            return false;
        }
        prev = Some(key);
    }
    n > 0
}

/// The engine, called in process.
#[derive(Debug)]
pub struct EngineTarget<'a> {
    ks: Keyspace,
    db: &'a ThreadedBLsm,
    /// Reads go through the lock-free view, as a reader thread of a real
    /// deployment would.
    view: ReadView,
}

impl<'a> EngineTarget<'a> {
    pub fn new(ks: Keyspace, db: &'a ThreadedBLsm) -> EngineTarget<'a> {
        EngineTarget {
            ks,
            db,
            view: db.read_view(),
        }
    }

    pub fn exec(&mut self, op: &Op) -> Result<(), Failure> {
        let ks = &self.ks;
        let ok = match *op {
            Op::Get { id, present } => {
                let got = self.view.get(&ks.key(id)).map_err(|_| Failure::Error)?;
                check_get(ks, id, present, got.as_deref())
            }
            Op::Put { id } => {
                let (k, v) = ks.record(id);
                self.db.put(k, v).map_err(|_| Failure::Error)?;
                true
            }
            Op::Cins { id, fresh } => {
                let (k, v) = ks.record(id);
                self.db
                    .insert_if_not_exists(k, v)
                    .map_err(|_| Failure::Error)?
                    == fresh
            }
            Op::Scan { from, rows } => {
                let got = self
                    .view
                    .scan(&ks.key(from), rows as usize)
                    .map_err(|_| Failure::Error)?;
                check_scan(
                    ks,
                    from,
                    rows,
                    got.iter().map(|r| (r.key.as_ref(), r.value.as_ref())),
                )
            }
        };
        if ok {
            Ok(())
        } else {
            Err(Failure::Wrong)
        }
    }
}

/// How often a refused write is sent again before it counts as refused.
const WIRE_ATTEMPTS: u32 = 6;

/// One connection to the server, used in pipelined batches.
#[derive(Debug)]
pub struct WireTarget {
    ks: Keyspace,
    client: Client,
}

impl WireTarget {
    pub fn connect(ks: Keyspace, addr: &str) -> Result<WireTarget, String> {
        Ok(WireTarget {
            ks,
            client: Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
        })
    }

    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    fn request(&self, op: &Op) -> Request {
        let ks = &self.ks;
        match *op {
            Op::Get { id, .. } => Request::Get {
                key: ks.key(id).to_vec(),
            },
            Op::Put { id } => Request::Put {
                key: ks.key(id).to_vec(),
                value: ks.value(id).to_vec(),
            },
            Op::Cins { id, .. } => Request::InsertIfNotExists {
                key: ks.key(id).to_vec(),
                value: ks.value(id).to_vec(),
            },
            Op::Scan { from, rows } => Request::Scan {
                from: ks.key(from).to_vec(),
                to: None,
                limit: rows,
            },
        }
    }

    fn check(&self, op: &Op, resp: &Response) -> Result<(), Failure> {
        let ks = &self.ks;
        let ok = match (*op, resp) {
            (Op::Get { id, present }, Response::Value(v)) => {
                check_get(ks, id, present, v.as_deref())
            }
            (Op::Put { .. }, Response::Ok) => true,
            (Op::Cins { fresh, .. }, Response::Inserted(done)) => *done == fresh,
            (Op::Scan { from, rows }, Response::Rows(got)) => check_scan(
                ks,
                from,
                rows,
                got.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
            ),
            (_, Response::RetryLater { .. }) => return Err(Failure::Refused),
            (_, Response::Err { .. }) => return Err(Failure::Error),
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(Failure::Wrong)
        }
    }

    /// Sends `ops` as one pipelined batch and waits for every answer.
    /// Writes the server refuses (`RETRY_LATER`) are sent again after
    /// its backoff hint, a few times; what is still refused then counts
    /// as refused. Calls `failed` once per operation that did not come
    /// back correct.
    pub fn exec_batch(&mut self, ops: &[Op], mut failed: impl FnMut(Failure)) {
        let mut pending: Vec<Op> = ops.to_vec();
        for attempt in 1..=WIRE_ATTEMPTS {
            let reqs: Vec<Request> = pending.iter().map(|op| self.request(op)).collect();
            let Ok(resps) = self.client.pipeline(&reqs) else {
                // The connection is gone and with it every answer; the
                // client reconnects on the next call.
                pending.iter().for_each(|_| failed(Failure::Error));
                return;
            };
            let mut refused = Vec::new();
            let mut backoff_ms = 0;
            for (op, resp) in pending.iter().zip(&resps) {
                match self.check(op, resp) {
                    Ok(()) => {}
                    Err(Failure::Refused) if attempt < WIRE_ATTEMPTS => {
                        if let Response::RetryLater { backoff_ms: hint } = resp {
                            backoff_ms = backoff_ms.max(*hint);
                        }
                        refused.push(*op);
                    }
                    Err(f) => failed(f),
                }
            }
            // A missing answer is a wrong answer.
            for _ in resps.len()..pending.len() {
                failed(Failure::Wrong);
            }
            if refused.is_empty() {
                return;
            }
            std::thread::sleep(Duration::from_millis(u64::from(backoff_ms)));
            pending = refused;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_from(ks: &Keyspace, ids: &[u64]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut rows: Vec<_> = ids
            .iter()
            .map(|&id| (ks.key(id).to_vec(), ks.value(id).to_vec()))
            .collect();
        rows.sort();
        rows
    }

    fn scan_ok(ks: &Keyspace, from: u64, want: u32, rows: &[(Vec<u8>, Vec<u8>)]) -> bool {
        check_scan(
            ks,
            from,
            want,
            rows.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
    }

    #[test]
    fn a_wrong_value_is_caught() {
        let ks = Keyspace::new(1);
        let good = ks.value(7);
        assert!(check_get(&ks, 7, true, Some(&good)));
        let mut bad = good;
        bad[99] ^= 1;
        assert!(!check_get(&ks, 7, true, Some(&bad)));
        assert!(!check_get(&ks, 7, true, Some(&good[..99])));
        // Missing when it must be there, there when it must be missing.
        assert!(!check_get(&ks, 7, true, None));
        assert!(check_get(&ks, 7, false, None));
        assert!(!check_get(&ks, 7, false, Some(&good)));
    }

    #[test]
    fn scans_must_start_right_ascend_and_carry_true_rows() {
        let ks = Keyspace::new(1);
        let rows = rows_from(&ks, &(0..200).collect::<Vec<u64>>());
        // Start from the id whose key sorts first, so all rows follow.
        let from = ks.id_of(&rows[0].0).unwrap();
        assert_ne!(rows[0].0[0], 0xff);
        let five = &rows[..5];
        assert!(scan_ok(&ks, from, 5, five));

        // Too few rows, too many rows, no rows.
        assert!(!scan_ok(&ks, from, 6, five));
        assert!(!scan_ok(&ks, from, 4, five));
        assert!(!scan_ok(&ks, from, 5, &[]));
        // Does not start at the requested key (a missing first row).
        assert!(!scan_ok(&ks, from, 4, &rows[1..5]));
        // Out of order.
        let mut swapped = five.to_vec();
        swapped.swap(2, 3);
        assert!(!scan_ok(&ks, from, 5, &swapped));
        // Duplicate row: ascending must be strict.
        let mut dup = five.to_vec();
        dup[3] = dup[2].clone();
        assert!(!scan_ok(&ks, from, 5, &dup));
        // A row with the wrong value, and a key that is not ours.
        let mut wrong = five.to_vec();
        wrong[4].1[0] ^= 1;
        assert!(!scan_ok(&ks, from, 5, &wrong));
        let mut alien = five.to_vec();
        alien[4].0[19] ^= 1;
        assert!(!scan_ok(&ks, from, 5, &alien));
    }

    #[test]
    fn a_scan_may_fall_short_only_at_the_end_of_the_keyspace() {
        let ks = Keyspace::new(1);
        let last = (0u64..).find(|&id| ks.key(id)[0] == 0xff).unwrap();
        let rows = rows_from(&ks, &[last]);
        assert!(scan_ok(&ks, last, 20, &rows));
    }

    #[test]
    fn failures_add_up() {
        let mut f = Failures::default();
        f.add(Failure::Wrong, 2);
        f.add(Failure::Lost, 1);
        let mut g = Failures::default();
        g.add(Failure::Error, 3);
        g.add(Failure::Refused, 4);
        f.merge(&g);
        assert_eq!(f.total(), 10);
        assert_eq!((f.errors, f.refused, f.wrong, f.lost), (3, 4, 2, 1));
    }
}
