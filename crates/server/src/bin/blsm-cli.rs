//! Command-line client for a running blsm server.
//!
//! ```text
//! blsm-cli ADDR ping
//! blsm-cli ADDR get KEY
//! blsm-cli ADDR put KEY VALUE
//! blsm-cli ADDR insert KEY VALUE
//! blsm-cli ADDR delta KEY SUFFIX
//! blsm-cli ADDR delete KEY
//! blsm-cli ADDR scan FROM LIMIT [TO]
//! blsm-cli ADDR stats
//! blsm-cli ADDR scrub
//! blsm-cli ADDR shutdown
//! blsm-cli ADDR repl-status
//! blsm-cli ADDR promote EPOCH
//! blsm-cli promote-auto ADDR1,ADDR2,... [GROUP_SIZE]
//! ```
//!
//! `stats` prints the admission counters, then every engine counter of
//! the store as one `name=value` line, then each shard's, prefixed with
//! `shard=N `.
//!
//! `scrub` exits 3 when the store has detectable damage (and prints
//! each finding), so scripts can gate on integrity.
//!
//! `repl-status` prints one machine-parseable line of replication state
//! (role/epoch/applied). `promote EPOCH` makes the addressed node the
//! leader for exactly that epoch; `promote-auto` runs the deterministic
//! failover handshake — read every reachable node's status, promote
//! the highest `(applied_seqno, node_id)` with an epoch above every one
//! observed — and prints the winner. GROUP_SIZE is the total number of
//! nodes in the group (defaults to the number of addresses given; pass
//! it explicitly when omitting known-dead nodes from the list):
//! promotion refuses to run unless a majority of the group answered,
//! since only a majority poll is guaranteed to see every acked write.
//!
//! Write commands retry with backoff when the server answers
//! RETRY_LATER (admission control above the high water mark); exit code
//! 1 means the retry budget ran out or the request failed.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use blsm::TreeStatsSnapshot;
use blsm_server::{elect_and_promote, Client, Response};

fn usage() -> ! {
    eprintln!(
        "usage: blsm-cli ADDR (ping | get K | put K V | insert K V | delta K V | \
         delete K | scan FROM LIMIT [TO] | stats | scrub | shutdown | \
         repl-status | promote EPOCH)\n       blsm-cli promote-auto ADDR1,ADDR2,... [GROUP_SIZE]"
    );
    std::process::exit(2);
}

/// One `name=value` line per engine counter, then one per histogram.
fn print_engine(prefix: &str, engine: &TreeStatsSnapshot) {
    for (name, value) in engine.named() {
        println!("{prefix}{name}={value}");
    }
    for (name, buckets) in engine.histograms() {
        println!("{prefix}{name}={buckets:?}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    if args[0] == "promote-auto" {
        let addrs: Vec<String> = args[1]
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        let group_size = match args.get(2) {
            Some(s) => match s.parse::<usize>() {
                Ok(n) if n >= addrs.len() => n,
                _ => {
                    eprintln!(
                        "blsm-cli: GROUP_SIZE must be a number >= the {} addresses given",
                        addrs.len()
                    );
                    std::process::exit(2);
                }
            },
            None => addrs.len(),
        };
        match elect_and_promote(&addrs, group_size) {
            Ok((winner, epoch)) => {
                println!("promoted {winner} epoch={epoch}");
                return;
            }
            Err(e) => {
                eprintln!("blsm-cli: promote-auto: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut client = match Client::connect(args[0].clone()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("blsm-cli: connect {}: {e}", args[0]);
            std::process::exit(1);
        }
    };
    let arg = |i: usize| -> &str {
        match args.get(i) {
            Some(s) => s,
            None => usage(),
        }
    };
    let outcome = match arg(1) {
        "ping" => client.ping().map(|()| println!("PONG")),
        "get" => client.get(arg(2).as_bytes()).map(|v| match v {
            Some(v) => println!("{}", String::from_utf8_lossy(&v)),
            None => println!("(nil)"),
        }),
        "put" => client
            .put(arg(2).as_bytes(), arg(3).as_bytes())
            .map(|()| println!("OK")),
        "insert" => client
            .insert_if_not_exists(arg(2).as_bytes(), arg(3).as_bytes())
            .map(|inserted| println!("{}", if inserted { "INSERTED" } else { "EXISTS" })),
        "delta" => client
            .apply_delta(arg(2).as_bytes(), arg(3).as_bytes())
            .map(|()| println!("OK")),
        "delete" => client.delete(arg(2).as_bytes()).map(|()| println!("OK")),
        "scan" => {
            let limit: u32 = arg(3).parse().unwrap_or_else(|_| usage());
            let to = args.get(4).map(String::as_bytes);
            client.scan(arg(2).as_bytes(), to, limit).map(|rows| {
                for (k, v) in &rows {
                    println!(
                        "{}\t{}",
                        String::from_utf8_lossy(k),
                        String::from_utf8_lossy(v)
                    );
                }
                println!("({} rows)", rows.len());
            })
        }
        "stats" => client.stats().map(|s| {
            println!(
                "admitted={} delayed={} rejected={}",
                s.admitted, s.delayed, s.rejected
            );
            print_engine("", &s.engine);
            for sh in &s.shards {
                let prefix = format!("shard={} ", sh.shard);
                println!(
                    "{prefix}serving={} admitted={} delayed={} rejected={}",
                    sh.engine.is_some(),
                    sh.admitted,
                    sh.delayed,
                    sh.rejected
                );
                if let Some(engine) = &sh.engine {
                    print_engine(&prefix, engine);
                }
            }
            if let Some(r) = &s.repl {
                println!(
                    "repl node={} role={:?} epoch={} applied_seqno={} acked_lsn={} lag_bytes={}",
                    r.node_id, r.role, r.epoch, r.applied_seqno, r.acked_lsn, r.lag_bytes
                );
            }
        }),
        "repl-status" => client.stats().map(|s| match &s.repl {
            Some(r) => println!(
                "node={} role={:?} epoch={} applied_seqno={} acked_lsn={} lag_bytes={}",
                r.node_id, r.role, r.epoch, r.applied_seqno, r.acked_lsn, r.lag_bytes
            ),
            None => {
                eprintln!("blsm-cli: replication not configured on this server");
                std::process::exit(1);
            }
        }),
        "promote" => {
            let epoch: u64 = arg(2).parse().unwrap_or_else(|_| usage());
            match client.promote(epoch) {
                Ok(Response::ReplAck {
                    epoch,
                    applied_seqno,
                    ..
                }) => {
                    println!("PROMOTED epoch={epoch} applied_seqno={applied_seqno}");
                    Ok(())
                }
                Ok(Response::Err { kind, message }) => {
                    eprintln!("blsm-cli: promote refused ({kind:?}): {message}");
                    std::process::exit(1);
                }
                Ok(other) => {
                    eprintln!("blsm-cli: unexpected promote reply: {other:?}");
                    std::process::exit(1);
                }
                Err(e) => Err(e),
            }
        }
        "scrub" => client.scrub().map(|r| {
            println!(
                "components={} pages={} entries={} errors={}",
                r.components,
                r.pages,
                r.entries,
                r.errors.len()
            );
            for e in &r.errors {
                println!("ERROR {e}");
            }
            if !r.errors.is_empty() {
                std::process::exit(3);
            }
        }),
        "shutdown" => client.shutdown_server().map(|()| println!("OK")),
        _ => usage(),
    };
    if let Err(e) = outcome {
        eprintln!("blsm-cli: {e}");
        std::process::exit(1);
    }
}
