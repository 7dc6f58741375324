//! Design persistence: JSON save/load for complete systems.
//!
//! Designs round-trip losslessly — every arena slot (including tombstones,
//! so ids stay stable), the control mapping, guards, and the initial
//! marking. Useful for checkpointing synthesis runs and for shipping the
//! benchmark designs as artefacts. The encoding is hand-rolled on
//! [`crate::json`] so the core crate carries no external dependencies.

use crate::arena::TypedVec;
use crate::control::{Control, Place, Transition};
use crate::datapath::{DataPath, DpArc};
use crate::error::{CoreError, CoreResult};
use crate::etpn::Etpn;
use crate::idlist::IdList;
use crate::ids::{ArcId, Id, PlaceId, PortId, TransId, VertexId};
use crate::json::{num_arr, parse, Json};
use crate::op::Op;
use crate::port::{Dir, Port};
use crate::vertex::{Vertex, VertexKind};

/// Serialise a design to pretty JSON.
pub fn to_json(g: &Etpn) -> CoreResult<String> {
    Ok(encode(g).pretty())
}

/// Deserialise a design from JSON and validate it structurally.
pub fn from_json(json: &str) -> CoreResult<Etpn> {
    let doc = parse(json).map_err(|e| CoreError::Invalid(format!("parsing design JSON: {e}")))?;
    let g = decode(&doc)?;
    g.validate()?;
    Ok(g)
}

/// Write a design to a file.
pub fn save(g: &Etpn, path: &str) -> CoreResult<()> {
    std::fs::write(path, to_json(g)?)
        .map_err(|e| CoreError::Invalid(format!("writing {path}: {e}")))
}

/// Read a design from a file.
pub fn load(path: &str) -> CoreResult<Etpn> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| CoreError::Invalid(format!("reading {path}: {e}")))?;
    from_json(&json)
}

// ----------------------------------------------------------------------
// Encoding
// ----------------------------------------------------------------------

fn encode(g: &Etpn) -> Json {
    Json::obj([
        ("format", Json::Str("etpn-v1".into())),
        (
            "dp",
            Json::obj([
                ("vertices", slot_arr(g.dp.vertices().slots(), encode_vertex)),
                ("ports", slot_arr(g.dp.ports().slots(), encode_port)),
                ("arcs", slot_arr(g.dp.arcs().slots(), encode_arc)),
                ("incoming", adjacency(g, |p| g.dp.incoming_arcs(p))),
                ("outgoing", adjacency(g, |p| g.dp.outgoing_arcs(p))),
            ]),
        ),
        (
            "ctl",
            Json::obj([
                ("places", slot_arr(g.ctl.places().slots(), encode_place)),
                (
                    "transitions",
                    slot_arr(g.ctl.transitions().slots(), encode_transition),
                ),
            ]),
        ),
    ])
}

fn slot_arr<'a, T: 'a>(slots: impl Iterator<Item = Option<&'a T>>, f: impl Fn(&T) -> Json) -> Json {
    Json::Arr(slots.map(|s| s.map(&f).unwrap_or(Json::Null)).collect())
}

/// Adjacency lists for every port *slot* (dead slots keep empty lists), so
/// re-pointed arcs restore in exactly the order `PartialEq` compares.
fn adjacency<'g>(g: &'g Etpn, arcs_of: impl Fn(PortId) -> &'g [ArcId]) -> Json {
    Json::Arr(
        (0..g.dp.ports().capacity_bound())
            .map(|i| {
                let p = PortId::new(i as u32);
                if g.dp.ports().contains(p) {
                    num_arr(arcs_of(p).iter().map(|a| a.0 as i64))
                } else {
                    num_arr([])
                }
            })
            .collect(),
    )
}

fn encode_vertex(v: &Vertex) -> Json {
    let kind = match v.kind {
        VertexKind::Unit => "unit",
        VertexKind::Input => "input",
        VertexKind::Output => "output",
    };
    Json::obj([
        ("name", Json::Str(v.name.clone())),
        ("kind", Json::Str(kind.into())),
        ("inputs", num_arr(v.inputs.iter().map(|p| p.0 as i64))),
        ("outputs", num_arr(v.outputs.iter().map(|p| p.0 as i64))),
    ])
}

fn encode_port(p: &Port) -> Json {
    Json::obj([
        ("vertex", Json::Num(p.vertex.0 as i64)),
        (
            "dir",
            Json::Str(if p.dir == Dir::In { "in" } else { "out" }.into()),
        ),
        ("index", Json::Num(p.index as i64)),
        ("op", p.op.map(encode_op).unwrap_or(Json::Null)),
    ])
}

fn encode_op(op: Op) -> Json {
    match op {
        Op::Const(v) => Json::obj([("const", Json::Num(v))]),
        other => Json::Str(format!("{other:?}").to_lowercase()),
    }
}

fn encode_arc(a: &DpArc) -> Json {
    Json::obj([
        ("from", Json::Num(a.from.0 as i64)),
        ("to", Json::Num(a.to.0 as i64)),
    ])
}

fn encode_place(s: &Place) -> Json {
    Json::obj([
        ("name", Json::Str(s.name.clone())),
        ("ctrl", num_arr(s.ctrl.iter().map(|a| a.0 as i64))),
        ("marked0", Json::Bool(s.marked0)),
        ("pre", num_arr(s.pre.iter().map(|t| t.0 as i64))),
        ("post", num_arr(s.post.iter().map(|t| t.0 as i64))),
    ])
}

fn encode_transition(t: &Transition) -> Json {
    Json::obj([
        ("name", Json::Str(t.name.clone())),
        ("pre", num_arr(t.pre.iter().map(|s| s.0 as i64))),
        ("post", num_arr(t.post.iter().map(|s| s.0 as i64))),
        ("guards", num_arr(t.guards.iter().map(|p| p.0 as i64))),
    ])
}

// ----------------------------------------------------------------------
// Decoding
// ----------------------------------------------------------------------

fn decode(doc: &Json) -> CoreResult<Etpn> {
    let dp = doc.req("dp")?;
    let ctl = doc.req("ctl")?;

    let vertices = decode_slots(dp.req("vertices")?, decode_vertex)?;
    let ports = decode_slots(dp.req("ports")?, decode_port)?;
    let arcs = decode_slots(dp.req("arcs")?, decode_arc)?;
    let incoming = decode_adjacency(dp.req("incoming")?)?;
    let outgoing = decode_adjacency(dp.req("outgoing")?)?;
    let dp = DataPath::from_raw(vertices, ports, arcs, incoming, outgoing)?;

    let places = decode_slots(ctl.req("places")?, decode_place)?;
    let transitions = decode_slots(ctl.req("transitions")?, decode_transition)?;
    let ctl = Control::from_raw(places, transitions);

    Ok(Etpn::new(dp, ctl))
}

fn decode_slots<I: Id, T>(
    arr: &Json,
    f: impl Fn(&Json) -> CoreResult<T>,
) -> CoreResult<TypedVec<I, T>> {
    let mut out = TypedVec::new();
    for item in arr.as_arr()? {
        if item.is_null() {
            out.push_slot(None);
        } else {
            out.push_slot(Some(f(item)?));
        }
    }
    Ok(out)
}

fn decode_adjacency(arr: &Json) -> CoreResult<Vec<IdList<ArcId>>> {
    arr.as_arr()?
        .iter()
        .map(|row| id_list(row, ArcId::new))
        .collect()
}

fn id_list<I: Id>(arr: &Json, mk: impl Fn(u32) -> I) -> CoreResult<IdList<I>> {
    arr.as_arr()?
        .iter()
        .map(|v| Ok(mk(v.as_index()? as u32)))
        .collect()
}

fn decode_vertex(j: &Json) -> CoreResult<Vertex> {
    let kind = match j.req("kind")?.as_str()? {
        "unit" => VertexKind::Unit,
        "input" => VertexKind::Input,
        "output" => VertexKind::Output,
        other => {
            return Err(CoreError::Invalid(format!(
                "design JSON: unknown vertex kind `{other}`"
            )))
        }
    };
    Ok(Vertex {
        name: j.req("name")?.as_str()?.to_string(),
        kind,
        inputs: id_list(j.req("inputs")?, PortId::new)?,
        outputs: id_list(j.req("outputs")?, PortId::new)?,
    })
}

fn decode_port(j: &Json) -> CoreResult<Port> {
    let dir = match j.req("dir")?.as_str()? {
        "in" => Dir::In,
        "out" => Dir::Out,
        other => {
            return Err(CoreError::Invalid(format!(
                "design JSON: unknown port dir `{other}`"
            )))
        }
    };
    let op = j.req("op")?;
    Ok(Port {
        vertex: VertexId::new(j.req("vertex")?.as_index()? as u32),
        dir,
        index: j.req("index")?.as_index()? as u16,
        op: if op.is_null() {
            None
        } else {
            Some(decode_op(op)?)
        },
    })
}

fn decode_op(j: &Json) -> CoreResult<Op> {
    if let Some(v) = j.get("const") {
        return Ok(Op::Const(v.as_i64()?));
    }
    let name = j.as_str()?;
    let op = match name {
        "add" => Op::Add,
        "sub" => Op::Sub,
        "mul" => Op::Mul,
        "div" => Op::Div,
        "rem" => Op::Rem,
        "neg" => Op::Neg,
        "abs" => Op::Abs,
        "min" => Op::Min,
        "max" => Op::Max,
        "and" => Op::And,
        "or" => Op::Or,
        "xor" => Op::Xor,
        "not" => Op::Not,
        "shl" => Op::Shl,
        "shr" => Op::Shr,
        "eq" => Op::Eq,
        "ne" => Op::Ne,
        "lt" => Op::Lt,
        "le" => Op::Le,
        "gt" => Op::Gt,
        "ge" => Op::Ge,
        "mux" => Op::Mux,
        "pass" => Op::Pass,
        "reg" => Op::Reg,
        "input" => Op::Input,
        other => {
            return Err(CoreError::Invalid(format!(
                "design JSON: unknown op `{other}`"
            )))
        }
    };
    Ok(op)
}

fn decode_arc(j: &Json) -> CoreResult<DpArc> {
    Ok(DpArc {
        from: PortId::new(j.req("from")?.as_index()? as u32),
        to: PortId::new(j.req("to")?.as_index()? as u32),
    })
}

fn decode_place(j: &Json) -> CoreResult<Place> {
    Ok(Place {
        name: j.req("name")?.as_str()?.to_string(),
        ctrl: id_list(j.req("ctrl")?, ArcId::new)?,
        marked0: j.req("marked0")?.as_bool()?,
        pre: id_list(j.req("pre")?, TransId::new)?,
        post: id_list(j.req("post")?, TransId::new)?,
    })
}

fn decode_transition(j: &Json) -> CoreResult<Transition> {
    Ok(Transition {
        name: j.req("name")?.as_str()?.to_string(),
        pre: id_list(j.req("pre")?, PlaceId::new)?,
        post: id_list(j.req("post")?, PlaceId::new)?,
        guards: id_list(j.req("guards")?, PortId::new)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EtpnBuilder;
    use crate::op::Op;

    fn sample() -> Etpn {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let add = b.operator(Op::Add, 2, "add");
        let r = b.register("r");
        let y = b.output("y");
        let a0 = b.connect(b.out_port(x, 0), b.in_port(add, 0));
        let a1 = b.connect(b.out_port(x, 0), b.in_port(add, 1));
        let a2 = b.connect(b.out_port(add, 0), b.in_port(r, 0));
        let a3 = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [a0, a1, a2]);
        b.control(s1, [a3]);
        let t = b.seq(s0, s1, "t");
        b.guard(t, b.out_port(add, 0));
        b.mark(s0);
        b.finish().unwrap()
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let g = sample();
        let json = to_json(&g).unwrap();
        let g2 = from_json(&json).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_preserves_tombstones() {
        let mut g = sample();
        // Remove a vertex so a tombstone exists; ids must stay aligned.
        let lone = g.dp.add_unit("lone", 1, &[Op::Pass]).unwrap();
        g.dp.remove_vertex(lone).unwrap();
        let marker = g.dp.add_register("after_tombstone");
        let json = to_json(&g).unwrap();
        let g2 = from_json(&json).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.dp.vertex(marker).name, "after_tombstone");
        assert!(g2.dp.vertices().get(lone).is_none());
    }

    #[test]
    fn corrupted_json_rejected() {
        assert!(from_json("{\"dp\": 42}").is_err());
        assert!(from_json("not json").is_err());
    }

    /// `x → r → y`: ports p0 (x out), p1 (r in), p2 (r out), p3 (y in);
    /// arcs a0 = p0 → p1 under s0 and a1 = p2 → p3 under s1.
    fn chain() -> Etpn {
        let mut b = EtpnBuilder::new();
        let x = b.input("x");
        let r = b.register("r");
        let y = b.output("y");
        let load = b.connect(b.out_port(x, 0), b.in_port(r, 0));
        let emit = b.connect(b.out_port(r, 0), b.in_port(y, 0));
        let s0 = b.place("s0");
        let s1 = b.place("s1");
        b.control(s0, [load]);
        b.control(s1, [emit]);
        b.seq(s0, s1, "t");
        b.mark(s0);
        b.finish().unwrap()
    }

    /// Decode [`chain`]'s JSON after `edit` has changed its document.
    fn decode_edited(edit: impl FnOnce(&mut Json)) -> CoreResult<Etpn> {
        let mut doc = parse(&to_json(&chain()).unwrap()).unwrap();
        edit(&mut doc);
        from_json(&doc.pretty())
    }

    /// The value at `path`, where object keys and array indices alternate.
    fn at<'a>(mut j: &'a mut Json, path: &[&str]) -> &'a mut Json {
        for key in path {
            j = match j {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
                other => panic!("no `{key}` in {other:?}"),
            };
        }
        j
    }

    #[test]
    fn vertex_listing_a_dangling_port_is_an_error() {
        let err = decode_edited(|doc| {
            *at(doc, &["dp", "vertices", "1", "outputs"]) = num_arr([999]);
        })
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::PortOwnership {
                vertex: VertexId::new(1),
                port: PortId::new(999)
            }
        );
    }

    #[test]
    fn vertex_listing_an_input_port_as_output_is_an_error() {
        let err = decode_edited(|doc| {
            *at(doc, &["dp", "vertices", "1", "outputs"]) = num_arr([1]);
        })
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::PortOwnership {
                vertex: VertexId::new(1),
                port: PortId::new(1)
            }
        );
    }

    #[test]
    fn port_naming_a_dead_vertex_is_an_error() {
        let err = decode_edited(|doc| {
            *at(doc, &["dp", "ports", "3", "vertex"]) = Json::Num(9);
        })
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::PortOwnership {
                vertex: VertexId::new(9),
                port: PortId::new(3)
            }
        );
    }

    #[test]
    fn output_port_without_an_operation_is_an_error() {
        let err = decode_edited(|doc| *at(doc, &["dp", "ports", "2", "op"]) = Json::Null);
        assert!(matches!(err, Err(CoreError::Invalid(m)) if m.starts_with("port p2:")));
    }

    #[test]
    fn arc_missing_from_its_source_row_is_an_error() {
        let err =
            decode_edited(|doc| *at(doc, &["dp", "outgoing", "0"]) = num_arr([])).unwrap_err();
        assert_eq!(
            err,
            CoreError::Invalid("arc a0 missing from adjacency lists".into())
        );
    }

    #[test]
    fn arc_moved_to_another_ports_incoming_row_is_an_error() {
        let err = decode_edited(|doc| {
            *at(doc, &["dp", "incoming", "1"]) = num_arr([]);
            *at(doc, &["dp", "incoming", "3"]) = num_arr([1, 0]);
        })
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::Invalid("arc a0 missing from adjacency lists".into())
        );
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let path = std::env::temp_dir().join("etpn_io_test.json");
        let path = path.to_str().unwrap();
        save(&g, path).unwrap();
        let g2 = load(path).unwrap();
        assert_eq!(g, g2);
        let _ = std::fs::remove_file(path);
    }
}
