//! Cluster mode: static membership, consistent-hash ownership, and
//! peer forwarding with failure-driven rebalance.
//!
//! A cluster is a set of `samm-serve` nodes sharing one topology file
//! (see `docs/CLUSTER.md`). Every node builds the same [`HashRing`]
//! over the member ids, so each query fingerprint has exactly one owner
//! everyone agrees on. A node answers keys it owns (or already has
//! cached) locally and forwards the rest to the owner over the ordinary
//! wire protocol with the `fwd` marker set — the owner never forwards
//! again, so disagreeing ring views (mid-drain) cannot loop.
//! `Cluster::route` is the one forward path, for a top-level
//! `enumerate` and a batch's slots alike; it relays the owner's answer
//! bytes once [`relay`] has checked them on the shared JSON lexer. A
//! peer that fails a forward is marked dead for [`DEAD_RETRY`] and its
//! ring arcs fall to their successors. The failed request, like one
//! whose reply fails the check, is answered locally (fallback), so a
//! draining or crashed node degrades service to local-compute rather
//! than errors.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use samm_core::fingerprint::Fingerprint;
use samm_core::telemetry::trace::{ActiveSpan, SpanKind};

use crate::answer::{EnumQuery, Relayed};
use crate::client::Client;
use crate::handler::ServerState;
use crate::json::{Lexer, ParseError, Token};
use crate::protocol::{render_envelope, Envelope, Request};
use crate::ring::HashRing;
use crate::telemetry::ReqOutcome;

/// How long a peer stays dead after a failed forward before the next
/// forward attempt probes it again (half-open).
pub const DEAD_RETRY: Duration = Duration::from_secs(5);

/// One member of the topology file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Unique node id (the `--node` flag selects ours).
    pub id: String,
    /// The node's serving address.
    pub addr: SocketAddr,
}

/// Parsed topology plus our own identity.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Every member, in file order.
    pub nodes: Vec<NodeSpec>,
    /// Index of this node in `nodes`.
    pub self_index: usize,
    /// Per-forward connect/read timeout.
    pub peer_timeout: Duration,
}

impl ClusterConfig {
    /// Parses a topology file: one `node-id address` pair per line,
    /// `#` comments and blank lines ignored. `self_id` must name one
    /// of the members.
    ///
    /// # Errors
    ///
    /// I/O failures, syntax errors, duplicate ids, unknown `self_id`,
    /// or fewer than two members.
    pub fn from_file(path: &Path, self_id: &str) -> std::io::Result<ClusterConfig> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text, self_id)
    }

    /// As [`ClusterConfig::from_file`], from in-memory text.
    ///
    /// # Errors
    ///
    /// As for [`ClusterConfig::from_file`].
    pub fn parse(text: &str, self_id: &str) -> std::io::Result<ClusterConfig> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut nodes: Vec<NodeSpec> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(id), Some(addr), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(bad(format!(
                    "topology line {}: expected 'node-id address', got '{line}'",
                    lineno + 1
                )));
            };
            let addr: SocketAddr = addr.parse().map_err(|e| {
                bad(format!(
                    "topology line {}: bad address '{addr}': {e}",
                    lineno + 1
                ))
            })?;
            if nodes.iter().any(|n| n.id == id) {
                return Err(bad(format!("duplicate node id '{id}'")));
            }
            nodes.push(NodeSpec {
                id: id.to_owned(),
                addr,
            });
        }
        if nodes.len() < 2 {
            return Err(bad(format!(
                "topology must list at least two nodes, found {}",
                nodes.len()
            )));
        }
        let self_index = nodes
            .iter()
            .position(|n| n.id == self_id)
            .ok_or_else(|| bad(format!("'--node {self_id}' is not in the topology file")))?;
        Ok(ClusterConfig {
            nodes,
            self_index,
            peer_timeout: Duration::from_secs(10),
        })
    }
}

/// One peer's connection pool plus its liveness state.
#[derive(Debug, Default)]
struct Peer {
    /// Idle connections, reused across forwards.
    pool: Mutex<Vec<Client>>,
    /// Set on forward failure; cleared after [`DEAD_RETRY`] or a
    /// successful probe.
    last_failure: Mutex<Option<Instant>>,
}

/// Live cluster state: the ring, peer pools, and liveness marks.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<NodeSpec>,
    self_index: usize,
    ring: HashRing,
    peers: Vec<Peer>,
    peer_timeout: Duration,
}

/// A point-in-time cluster view for the `metrics` response and the
/// exposition.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// This node's id.
    pub self_id: String,
    /// Every member: (id, currently considered alive).
    pub nodes: Vec<(String, bool)>,
}

impl Cluster {
    /// Builds the ring and empty peer pools from a parsed config.
    pub fn new(config: ClusterConfig) -> Cluster {
        let ids: Vec<String> = config.nodes.iter().map(|n| n.id.clone()).collect();
        let peers = config.nodes.iter().map(|_| Peer::default()).collect();
        Cluster {
            ring: HashRing::build(&ids),
            nodes: config.nodes,
            self_index: config.self_index,
            peers,
            peer_timeout: config.peer_timeout,
        }
    }

    /// This node's id.
    pub fn self_id(&self) -> &str {
        &self.nodes[self.self_index].id
    }

    /// The id of node `index`.
    pub fn node_id(&self, index: usize) -> &str {
        &self.nodes[index].id
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the membership is empty (never true for a parsed
    /// config, which requires two nodes).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn is_alive(&self, index: usize) -> bool {
        if index == self.self_index {
            return true;
        }
        let last = self.peers[index]
            .last_failure
            .lock()
            .expect("peer liveness poisoned");
        match *last {
            Some(at) => at.elapsed() >= DEAD_RETRY,
            None => true,
        }
    }

    /// The node that owns `fp` under the current liveness view. Falls
    /// back to this node when every peer is dead.
    pub fn owner_of(&self, fp: Fingerprint) -> usize {
        self.ring
            .route_filtered(fp.raw(), |node| self.is_alive(node))
            .unwrap_or(self.self_index)
    }

    /// Whether this node owns `fp`.
    pub fn owns(&self, fp: Fingerprint) -> bool {
        self.owner_of(fp) == self.self_index
    }

    /// Marks peer `index` dead from now on, or alive again.
    fn mark(&self, index: usize, dead: bool) {
        *self.peers[index]
            .last_failure
            .lock()
            .expect("peer liveness poisoned") = dead.then(Instant::now);
    }

    /// Sends `env`, which carries the `fwd` marker, to node `owner` and
    /// returns what `accept` makes of the peer's reply line, or `None`.
    /// A pooled connection that fails is retried once on a fresh one (it
    /// may have idled out); a second transport failure marks the peer
    /// dead. A connection is pooled again only after an accepted reply.
    pub fn forward<T>(
        &self,
        owner: usize,
        env: &Envelope,
        accept: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        debug_assert_ne!(owner, self.self_index, "never forward to self");
        debug_assert!(env.fwd, "forwarded envelopes carry the fwd marker");
        let line = render_envelope(env).to_string();
        let pool = &self.peers[owner].pool;
        let mut pooled = pool.lock().expect("peer pool poisoned").pop();
        let (client, reply) = loop {
            let retry = pooled.is_some();
            let client = pooled.take().map_or_else(
                || Client::connect(self.nodes[owner].addr, self.peer_timeout),
                Ok,
            );
            match client.and_then(|mut c| c.request_line(&line).map(|reply| (c, reply))) {
                Ok(exchanged) => break exchanged,
                Err(_) if retry => {}
                Err(_) => {
                    self.mark(owner, true);
                    return None;
                }
            }
        };
        self.mark(owner, false);
        let accepted = accept(reply.as_bytes())?;
        pool.lock().expect("peer pool poisoned").push(client);
        Some(accepted)
    }

    /// The one forward path for `enumerate` answers: forwards the slots
    /// a peer owns and this node does not hold, one envelope per owner,
    /// and returns, per slot, the owner's checked answer or `None` (an
    /// unforwarded slot, or a failed forward, which the caller answers
    /// locally). A slot is an `enumerate` envelope with its effective id;
    /// `None` or any other kind is never forwarded. With `batch`, each
    /// owner's slots travel as one `fwd` batch whatever their number;
    /// without, the one slot travels as a top-level `enumerate` with its
    /// id, which the owner echoes. Opens the `forward` spans under
    /// `span` and counts the forward telemetry: forwards, fallbacks and
    /// each resolved slot's hops.
    pub(crate) fn route(
        &self,
        state: &ServerState,
        slots: &[Option<(&Envelope, String)>],
        batch: bool,
        span: Option<&ActiveSpan>,
    ) -> Vec<Option<Relayed>> {
        let mut groups: BTreeMap<usize, Vec<(usize, &Envelope, &str)>> = BTreeMap::new();
        for (index, slot) in slots.iter().enumerate() {
            let Some((env, id)) = slot else { continue };
            // A request that does not resolve is answered locally, with
            // its structured error.
            let Some(query) = EnumQuery::of(state, &env.request) else {
                continue;
            };
            let owner = self.owner_of(query.fp);
            if owner != self.self_index && !state.cache.contains(query.fp) {
                groups.entry(owner).or_default().push((index, env, id));
            } else {
                state.telemetry.forward_hops.record(0);
            }
        }
        let mut relayed: Vec<Option<Relayed>> = slots.iter().map(|_| None).collect();
        for (owner, group) in groups {
            let ids: Vec<&str> = group.iter().map(|&(_, _, id)| id).collect();
            let (id, request) = if batch {
                let subs = group.iter().map(|&(_, sub, id)| {
                    let id = Some(id.to_owned());
                    Ok(Envelope { id, ..sub.clone() })
                });
                (None, Request::Batch(subs.collect()))
            } else {
                (Some(ids[0].to_owned()), group[0].1.request.clone())
            };
            // The forward span is the parent the owner continues under:
            // its context travels in the envelope's trace field.
            let fwd_span = span.map(|s| s.child("forward", SpanKind::Client));
            let env = Envelope {
                id,
                request,
                fwd: true,
                trace: fwd_span.as_ref().map(ActiveSpan::context),
            };
            let answers = self.forward(owner, &env, |line| relay(line, &ids, batch));
            let peer = self.node_id(owner);
            if let Some(mut fs) = fwd_span {
                fs.attr("peer", peer.to_owned());
                fs.attr("slots", group.len() as u64);
                fs.attr("ok", answers.is_some());
                fs.finish(&state.telemetry);
            }
            let Some(answers) = answers else {
                group.iter().for_each(|_| state.telemetry.note_fallback());
                continue;
            };
            for (&(index, ..), answer) in group.iter().zip(answers) {
                state.telemetry.note_forward(peer);
                relayed[index] = Some(answer);
            }
        }
        relayed
    }

    /// The current membership/liveness view.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            self_id: self.self_id().to_owned(),
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| (n.id.clone(), self.is_alive(i)))
                .collect(),
        }
    }
}

/// Checks a peer's reply line to a forward of `enumerate` answers
/// echoing `ids` — a batch's, with one `responses` element per id, when
/// `batch` — and returns each answer as the owner wrote it, with
/// `"forwarded":true` inserted. The check walks the line on the shared
/// JSON lexer and builds no tree. `None` for any other reply: a line
/// that is not one object, a batch that is not `ok`, an answer without a
/// boolean `ok` or with another id, a wrong slot count, or trailing
/// bytes.
pub fn relay(line: &[u8], ids: &[&str], batch: bool) -> Option<Vec<Relayed>> {
    let mut lex = Lexer::new(line);
    let mut answers = Vec::with_capacity(ids.len());
    if batch {
        let mut ok = false;
        lex.object(0, |lex, key, depth| {
            match (key.as_ref(), lex.token(depth)?) {
                ("ok", Token::Bool(b)) => ok = b,
                ("responses", Token::Arr) => lex.array(depth, |lex, depth| {
                    let id = ids.get(answers.len()).copied().unwrap_or_default();
                    answers.push(relay_answer(lex, line, depth, id)?);
                    Ok(())
                })?,
                (_, token) => lex.skip_container(&token, depth)?,
            }
            Ok(())
        })
        .ok()?;
        if !ok {
            return None;
        }
    } else {
        answers.push(relay_answer(&mut lex, line, 0, ids.first()?).ok()?);
    }
    lex.finish().ok()?;
    if answers.len() != ids.len() {
        return None;
    }
    answers.into_iter().collect()
}

/// Reads the answer object at `lex`'s position in `line`: `None` unless
/// it has a boolean `ok` and echoes `id`. The answer's outcome is
/// read from `ok`, `error.kind` and `cache_hit`, and `"forwarded":true`
/// goes in sorted key order among its top-level keys.
fn relay_answer(
    lex: &mut Lexer<'_>,
    line: &[u8],
    depth: usize,
    id: &str,
) -> Result<Option<Relayed>, ParseError> {
    let start = lex.pos();
    let (mut ok, mut hit, mut overbudget, mut echoed) = (None, false, false, false);
    // The end of the last member whose key sorts before `forwarded`.
    let mut after = None;
    lex.object(depth, |lex, key, depth| {
        match (key.as_ref(), lex.token(depth)?) {
            ("ok", Token::Bool(b)) => ok = Some(b),
            ("cache_hit", Token::Bool(b)) => hit = b,
            ("id", Token::Str(echo)) => echoed = echo == id,
            ("error", Token::Obj) => lex.object(depth, |lex, key, depth| {
                let value = lex.value(depth)?;
                overbudget |=
                    key == "kind" && matches!(value, Token::Str(kind) if kind == "overbudget");
                Ok(())
            })?,
            (_, token) => lex.skip_container(&token, depth)?,
        }
        if key.as_ref() < "forwarded" {
            after = Some(lex.pos());
        }
        Ok(())
    })?;
    let outcome = match (ok, echoed) {
        (Some(true), true) if hit => ReqOutcome::Hit,
        (Some(true), true) => ReqOutcome::Miss,
        (Some(false), true) if overbudget => ReqOutcome::Overbudget,
        (Some(false), true) => ReqOutcome::Error,
        _ => return Ok(None),
    };
    // A boolean `ok` makes the object non-empty, so a member follows `{`.
    let (at, field): (_, &[u8]) = match after {
        Some(at) => (at, b",\"forwarded\":true"),
        None => (start + 1, b"\"forwarded\":true,"),
    };
    let bytes = [&line[start..at], field, &line[at..lex.pos()]].concat();
    Ok(Some(Relayed { bytes, outcome }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPO: &str = "# test ring\nn1 127.0.0.1:7101\nn2 127.0.0.1:7102\n\nn3 127.0.0.1:7103\n";

    #[test]
    fn topology_parses_and_identifies_self() {
        let config = ClusterConfig::parse(TOPO, "n2").unwrap();
        assert_eq!(config.nodes.len(), 3);
        assert_eq!(config.self_index, 1);
        assert_eq!(config.nodes[2].id, "n3");
        assert_eq!(config.nodes[2].addr, "127.0.0.1:7103".parse().unwrap());
    }

    #[test]
    fn topology_rejects_bad_input() {
        for (text, own) in [
            ("n1 127.0.0.1:1 extra\nn2 127.0.0.1:2\n", "n1"),
            ("n1 not-an-addr\nn2 127.0.0.1:2\n", "n1"),
            ("n1 127.0.0.1:1\nn1 127.0.0.1:2\n", "n1"),
            ("n1 127.0.0.1:1\n", "n1"),
            (TOPO, "n9"),
        ] {
            assert!(ClusterConfig::parse(text, own).is_err(), "{text:?}");
        }
    }

    #[test]
    fn ownership_is_consistent_across_members() {
        let views: Vec<Cluster> = ["n1", "n2", "n3"]
            .iter()
            .map(|id| Cluster::new(ClusterConfig::parse(TOPO, id).unwrap()))
            .collect();
        let mut owned = [0usize; 3];
        for key in 0..3_000u128 {
            let fp = {
                let mut h = samm_core::fingerprint::FingerprintHasher::new();
                h.write_bytes(&key.to_le_bytes());
                h.finish()
            };
            let owner = views[0].owner_of(fp);
            for view in &views[1..] {
                assert_eq!(view.owner_of(fp), owner, "ring views must agree");
            }
            assert!(views[owner].owns(fp), "the owner must claim its keys");
            owned[owner] += 1;
        }
        assert!(owned.iter().all(|&n| n > 0), "skewed: {owned:?}");
    }

    #[test]
    fn dead_peers_shift_ownership_until_retry() {
        let cluster = Cluster::new(ClusterConfig::parse(TOPO, "n1").unwrap());
        let fp = {
            let mut h = samm_core::fingerprint::FingerprintHasher::new();
            h.write_bytes(b"some key");
            h.finish()
        };
        let primary = cluster.owner_of(fp);
        if primary != cluster.self_index {
            cluster.mark(primary, true);
            let fallback = cluster.owner_of(fp);
            assert_ne!(fallback, primary, "dead owner must shed the key");
            let snapshot = cluster.snapshot();
            assert!(!snapshot.nodes[primary].1);
            cluster.mark(primary, false);
            assert_eq!(cluster.owner_of(fp), primary);
        }
        // With every peer dead, all keys land here.
        cluster.mark(1, true);
        cluster.mark(2, true);
        assert_eq!(cluster.owner_of(fp), cluster.self_index);
        assert!(cluster.owns(fp));
    }
}
