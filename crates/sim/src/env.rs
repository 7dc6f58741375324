//! Environments: the outside world a design interacts with (paper §3).
//!
//! "We assume that a sequence of such values is implicitly predefined for
//! each input vertex, when an external event structure is specified." An
//! [`Environment`] supplies exactly that: a value stream per external input
//! vertex. The stream position advances once per control step in which any
//! arc leaving the input vertex was open — i.e. once per external input
//! event occurrence.

use etpn_core::{Etpn, Value, VertexId};
use std::collections::HashMap;

/// A source of input values for the external input vertices.
pub trait Environment {
    /// The `k`-th value of the stream predefined for `input` (0-based).
    ///
    /// Returning [`Value::Undef`] models an exhausted or absent stream.
    fn value_at(&self, input: VertexId, name: &str, k: u64) -> Value;

    /// A process-independent 64-bit fingerprint of the whole environment,
    /// or `None` when one cannot be computed.
    ///
    /// Two environments with equal fingerprints must answer every
    /// `value_at` query identically. The flight recorder stamps it into a
    /// recording's metadata (`env_fp`); `None` leaves that field empty.
    fn fingerprint(&self) -> Option<u64> {
        None
    }

    /// True when the stream for `input` has *run dry* at position `k`: the
    /// environment can say definitively that this and every later read
    /// yields `⊥`. Environments that cannot tell (closures, infinite
    /// generators) return `false`.
    ///
    /// The engine's strict-input mode (`Simulator::strict_inputs`) turns a
    /// dry read into [`crate::error::SimError::InputExhausted`] naming the
    /// vertex, instead of silently propagating `⊥`.
    fn ran_dry(&self, _input: VertexId, _name: &str, _k: u64) -> bool {
        false
    }

    /// The full scripted content of the environment — every stream as
    /// `(name, values)` in *name order* plus the repeat-last flag — or
    /// `None` when the environment is not enumerable (closures).
    ///
    /// The flight recorder embeds this in recordings so a run can be
    /// replayed with no out-of-band environment.
    fn export_streams(&self) -> Option<ExportedStreams> {
        None
    }
}

/// The scripted content exported by [`Environment::export_streams`]:
/// every stream as `(name, values)` in name order, plus the repeat-last
/// flag.
pub type ExportedStreams = (Vec<(String, Vec<Value>)>, bool);

/// An environment defined by explicit finite streams keyed by input-vertex
/// name. Positions beyond the end of a stream yield `⊥` by default, or the
/// last value when [`ScriptedEnv::repeat_last`] is set.
#[derive(Clone, Debug, Default)]
pub struct ScriptedEnv {
    streams: HashMap<String, Vec<Value>>,
    repeat_last: bool,
}

impl ScriptedEnv {
    /// An environment with no streams (every read yields `⊥`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a stream of defined values to the input vertex named `name`.
    pub fn with_stream<I, T>(mut self, name: &str, values: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<i64>,
    {
        self.streams.insert(
            name.to_string(),
            values.into_iter().map(|v| Value::Def(v.into())).collect(),
        );
        self
    }

    /// Attach a raw stream that may contain `⊥`.
    pub fn with_raw_stream(mut self, name: &str, values: Vec<Value>) -> Self {
        self.streams.insert(name.to_string(), values);
        self
    }

    /// After a stream is exhausted, keep supplying its last value instead
    /// of `⊥`. Useful for quasi-constant inputs such as mode pins.
    pub fn repeat_last(mut self) -> Self {
        self.repeat_last = true;
        self
    }

    /// The length of the shortest attached stream (0 when none).
    pub fn shortest_stream(&self) -> usize {
        self.shortest_stream_named().map_or(0, |(_, len)| len)
    }

    /// The shortest attached stream together with the input it feeds, or
    /// `None` when no streams are attached. This is the stream that runs
    /// dry first, so it names the input a hang diagnosis should point at
    /// (ties broken by name for determinism).
    pub fn shortest_stream_named(&self) -> Option<(&str, usize)> {
        self.streams
            .iter()
            .map(|(name, seq)| (name.as_str(), seq.len()))
            .min_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)))
    }
}

/// Why a stream called `name` cannot feed `g`: `None` when `g` has an
/// input vertex of that name, else a message listing `g`'s inputs. A
/// misspelt stream would otherwise leave the input it meant undefined.
pub fn unknown_input(g: &Etpn, name: &str) -> Option<String> {
    let inputs = g.dp.input_vertices();
    if inputs.iter().any(|&v| g.dp.vertex(v).name == name) {
        return None;
    }
    let names: Vec<&str> = inputs
        .iter()
        .map(|&v| g.dp.vertex(v).name.as_str())
        .collect();
    Some(if names.is_empty() {
        "not an input of the design, which has none".to_string()
    } else {
        format!("not an input of the design (inputs: {})", names.join(", "))
    })
}

impl Environment for ScriptedEnv {
    fn value_at(&self, _input: VertexId, name: &str, k: u64) -> Value {
        match self.streams.get(name) {
            Some(seq) => match seq.get(k as usize) {
                Some(&v) => v,
                None if self.repeat_last => seq.last().copied().unwrap_or(Value::Undef),
                None => Value::Undef,
            },
            None => Value::Undef,
        }
    }

    /// A finite stream without `repeat_last` runs dry past its end; an
    /// absent stream is dry from position 0 (every read yields `⊥`).
    fn ran_dry(&self, _input: VertexId, name: &str, k: u64) -> bool {
        match self.streams.get(name) {
            Some(seq) => !self.repeat_last && k as usize >= seq.len(),
            None => true,
        }
    }

    /// Streams hashed in name order, so `HashMap` iteration order cannot
    /// leak into the fingerprint.
    fn fingerprint(&self) -> Option<u64> {
        let mut h = etpn_core::StableHasher::new();
        h.write_bool(self.repeat_last);
        let mut names: Vec<&String> = self.streams.keys().collect();
        names.sort_unstable();
        h.write_usize(names.len());
        for name in names {
            h.write_str(name);
            let seq = &self.streams[name];
            h.write_usize(seq.len());
            for &v in seq {
                match v {
                    Value::Undef => h.write_u64(u64::MAX),
                    Value::Def(x) => {
                        h.write_bool(true);
                        h.write_i64(x);
                    }
                }
            }
        }
        Some(h.finish())
    }

    /// Streams exported in name order for embedding in recordings.
    fn export_streams(&self) -> Option<ExportedStreams> {
        let mut streams: Vec<(String, Vec<Value>)> = self
            .streams
            .iter()
            .map(|(n, v)| (n.clone(), v.clone()))
            .collect();
        streams.sort_by(|a, b| a.0.cmp(&b.0));
        Some((streams, self.repeat_last))
    }
}

/// Per-run cursor state tracking how far each input vertex has consumed its
/// stream. Owned by the simulation engine.
#[derive(Clone, Debug)]
pub struct InputCursors {
    /// `positions[raw vertex id]` = next stream index `k`.
    positions: Vec<u64>,
}

impl InputCursors {
    /// Fresh cursors (all at position 0) for the inputs of `g`.
    pub fn new(g: &Etpn) -> Self {
        Self {
            positions: vec![0; g.dp.vertices().capacity_bound()],
        }
    }

    /// Current position of an input vertex.
    pub fn position(&self, v: VertexId) -> u64 {
        self.positions[v.idx()]
    }

    /// Advance an input vertex's cursor by one (called once per step in
    /// which one of its arcs was open).
    pub fn advance(&mut self, v: VertexId) {
        self.positions[v.idx()] += 1;
    }

    /// The raw position array (raw-vertex-id indexed), as recorder
    /// checkpoints snapshot it.
    pub fn positions(&self) -> &[u64] {
        &self.positions
    }

    /// Overwrite all cursor positions from a checkpoint snapshot (the
    /// inverse of [`InputCursors::positions`]).
    pub fn restore(&mut self, positions: &[u64]) {
        self.positions.clear();
        self.positions.extend_from_slice(positions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_input_vertices_take_a_stream() {
        let mut b = etpn_core::EtpnBuilder::new();
        b.input("a");
        b.input("b");
        b.register("r");
        let g = b.finish().unwrap();
        assert_eq!(unknown_input(&g, "a"), None);
        assert_eq!(
            unknown_input(&g, "r").as_deref(),
            Some("not an input of the design (inputs: a, b)")
        );
        let none = etpn_core::EtpnBuilder::new().finish().unwrap();
        assert_eq!(
            unknown_input(&none, "A").as_deref(),
            Some("not an input of the design, which has none")
        );
    }

    #[test]
    fn scripted_streams_in_order() {
        let env = ScriptedEnv::new().with_stream("x", [1, 2, 3]);
        let v = VertexId::new(0);
        assert_eq!(env.value_at(v, "x", 0), Value::Def(1));
        assert_eq!(env.value_at(v, "x", 2), Value::Def(3));
        assert_eq!(env.value_at(v, "x", 3), Value::Undef);
        assert_eq!(env.value_at(v, "y", 0), Value::Undef);
        assert_eq!(env.shortest_stream(), 3);
    }

    #[test]
    fn ran_dry_reports_exhaustion_precisely() {
        let v = VertexId::new(0);
        let env = ScriptedEnv::new().with_stream("x", [1, 2]);
        assert!(!env.ran_dry(v, "x", 0));
        assert!(!env.ran_dry(v, "x", 1));
        assert!(env.ran_dry(v, "x", 2), "past-end read is dry");
        assert!(env.ran_dry(v, "missing", 0), "absent stream is dry");
        // repeat_last never runs dry.
        let env = ScriptedEnv::new().with_stream("x", [7]).repeat_last();
        assert!(!env.ran_dry(v, "x", 100));
    }

    #[test]
    fn shortest_stream_names_the_dry_input() {
        let env = ScriptedEnv::new()
            .with_stream("long", [1, 2, 3])
            .with_stream("short", [9]);
        assert_eq!(env.shortest_stream_named(), Some(("short", 1)));
        assert_eq!(env.shortest_stream(), 1);
        assert_eq!(ScriptedEnv::new().shortest_stream_named(), None);
        // Equal lengths: deterministic tie-break by name.
        let env = ScriptedEnv::new()
            .with_stream("b", [1])
            .with_stream("a", [2]);
        assert_eq!(env.shortest_stream_named(), Some(("a", 1)));
    }

    #[test]
    fn repeat_last_extends_stream() {
        let env = ScriptedEnv::new().with_stream("x", [7]).repeat_last();
        let v = VertexId::new(0);
        assert_eq!(env.value_at(v, "x", 100), Value::Def(7));
    }
}
