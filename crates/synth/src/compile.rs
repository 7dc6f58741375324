//! Compilation of a behavioural program into an initial, *maximally serial*
//! ETPN design — "the preliminary design" that §5's transformational
//! synthesis starts from.
//!
//! Every assignment becomes one control state opening the arcs of its
//! expression tree (fresh operator vertices per occurrence — the data path
//! starts maximally parallel, the control maximally serial; mergers later
//! share units, parallelisation later shortens the control). `if`/`while`
//! compile to *decide* states whose exit transitions are guarded by a
//! two-output comparator carrying an operation and its complement — which
//! the conflict-freedom checker (Def. 3.2(3)) can prove exclusive — and
//! which latch the condition into a one-bit state register so the decide
//! state performs observable work (Def. 3.2(5)). `par` compiles to
//! fork/join transitions.
//!
//! A final *compaction* pass elides the idle glue places the translation
//! scheme introduces (branch entries, joins): an idle place on a straight
//! unguarded line contributes nothing but a wasted control step.

use crate::error::{SynthError, SynthResult};
use etpn_core::{ArcId, Etpn, Op, PlaceId, PortId, TransId, VertexId};
use etpn_lang::{BinOp, Expr, Program, Span, Stmt, UnOp};
use std::collections::HashMap;

/// Maps compiled net elements back to the byte spans of the source
/// constructs they were created for, so diagnostics on the ETPN can point
/// into the original `.hdl` text. Elements with no source counterpart
/// (glue transitions of compaction, the terminating transition) are
/// simply absent.
#[derive(Clone, Debug, Default)]
pub struct SourceMap {
    /// Control place → span of the statement it executes.
    pub place: HashMap<PlaceId, Span>,
    /// Control transition → span of the statement that created it.
    pub trans: HashMap<TransId, Span>,
    /// Data-path vertex → span of its declaration or the expression
    /// occurrence it was instantiated for.
    pub vertex: HashMap<VertexId, Span>,
    /// Data-path arc → span of the statement whose expression opened it.
    pub arc: HashMap<ArcId, Span>,
}

impl SourceMap {
    /// The span recorded for a place ([`Span::DUMMY`] when unmapped).
    pub fn place_span(&self, p: PlaceId) -> Span {
        self.place.get(&p).copied().unwrap_or(Span::DUMMY)
    }

    /// The span recorded for a transition ([`Span::DUMMY`] when unmapped).
    pub fn trans_span(&self, t: TransId) -> Span {
        self.trans.get(&t).copied().unwrap_or(Span::DUMMY)
    }

    /// The span recorded for a vertex ([`Span::DUMMY`] when unmapped).
    pub fn vertex_span(&self, v: VertexId) -> Span {
        self.vertex.get(&v).copied().unwrap_or(Span::DUMMY)
    }

    /// The span recorded for an arc ([`Span::DUMMY`] when unmapped).
    pub fn arc_span(&self, a: ArcId) -> Span {
        self.arc.get(&a).copied().unwrap_or(Span::DUMMY)
    }
}

/// A compiled design with its name maps and register reset values.
#[derive(Clone, Debug)]
pub struct CompiledDesign {
    /// The ETPN system.
    pub etpn: Etpn,
    /// Register name → vertex.
    pub regs: HashMap<String, VertexId>,
    /// Input name → vertex.
    pub inputs: HashMap<String, VertexId>,
    /// Output name → vertex.
    pub outputs: HashMap<String, VertexId>,
    /// Register reset values from `reg r = k;` declarations.
    pub reg_inits: Vec<(String, i64)>,
    /// The design name.
    pub name: String,
    /// Net element → source span map for diagnostics.
    pub src_map: SourceMap,
}

impl CompiledDesign {
    /// Build a simulator on the compiled engine with register reset values
    /// applied.
    pub fn simulator<'g, E: etpn_sim::Environment>(&'g self, env: E) -> etpn_sim::Simulator<'g, E> {
        let mut sim = etpn_sim::Simulator::new(&self.etpn, env);
        for (name, value) in &self.reg_inits {
            sim = sim.init_register(name, *value);
        }
        sim
    }
}

/// Compile a checked program into its initial serial design.
pub fn compile(prog: &Program) -> SynthResult<CompiledDesign> {
    etpn_lang::check(prog)?;
    let mut c = Compiler {
        g: Etpn::default(),
        regs: HashMap::new(),
        inputs: HashMap::new(),
        outputs: HashMap::new(),
        fresh: 0,
        src_map: SourceMap::default(),
        cur_span: Span::DUMMY,
    };
    for (i, name) in prog.inputs.iter().enumerate() {
        let v = c.g.dp.add_input(name.clone());
        c.inputs.insert(name.clone(), v);
        if let Some(&sp) = prog.input_spans.get(i) {
            c.src_map.vertex.insert(v, sp);
        }
    }
    for (i, name) in prog.outputs.iter().enumerate() {
        let v = c.g.dp.add_output(name.clone());
        c.outputs.insert(name.clone(), v);
        if let Some(&sp) = prog.output_spans.get(i) {
            c.src_map.vertex.insert(v, sp);
        }
    }
    let mut reg_inits = Vec::new();
    for r in &prog.regs {
        let v = c.g.dp.add_register(r.name.clone());
        c.regs.insert(r.name.clone(), v);
        c.src_map.vertex.insert(v, r.span);
        if let Some(init) = r.init {
            reg_inits.push((r.name.clone(), init));
        }
    }

    let entry = c.g.ctl.add_place("entry");
    c.g.ctl.set_marked0(entry, true);
    let exit = c.compile_stmts(&prog.body, entry)?;
    // Terminating transition: consumes the final token (Def. 3.1(6)).
    let t_end = c.g.ctl.add_transition("t_end");
    c.g.ctl.flow_st(exit, t_end)?;

    compact(&mut c.g);
    c.g.validate()?;
    Ok(CompiledDesign {
        etpn: c.g,
        regs: c.regs,
        inputs: c.inputs,
        outputs: c.outputs,
        reg_inits,
        name: prog.name.clone(),
        src_map: c.src_map,
    })
}

struct Compiler {
    g: Etpn,
    regs: HashMap<String, VertexId>,
    inputs: HashMap<String, VertexId>,
    outputs: HashMap<String, VertexId>,
    fresh: usize,
    src_map: SourceMap,
    /// Span of the statement currently being compiled; every net element
    /// created while it is set maps back to it.
    cur_span: Span,
}

impl Compiler {
    fn fresh(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    fn add_place(&mut self, name: String) -> PlaceId {
        let p = self.g.ctl.add_place(name);
        if !self.cur_span.is_dummy() {
            self.src_map.place.insert(p, self.cur_span);
        }
        p
    }

    fn add_transition(&mut self, name: String) -> TransId {
        let t = self.g.ctl.add_transition(name);
        if !self.cur_span.is_dummy() {
            self.src_map.trans.insert(t, self.cur_span);
        }
        t
    }

    fn seq(&mut self, from: PlaceId, to: PlaceId) -> SynthResult<()> {
        let name = self.fresh("t");
        let t = self.add_transition(name);
        self.g.ctl.flow_st(from, t)?;
        self.g.ctl.flow_ts(t, to)?;
        Ok(())
    }

    fn connect(&mut self, from: PortId, to: PortId, arcs: &mut Vec<ArcId>) -> SynthResult<()> {
        let a = self.g.dp.connect(from, to)?;
        if !self.cur_span.is_dummy() {
            self.src_map.arc.insert(a, self.cur_span);
        }
        arcs.push(a);
        Ok(())
    }

    fn note_vertex(&mut self, vx: VertexId) -> VertexId {
        if !self.cur_span.is_dummy() {
            self.src_map.vertex.insert(vx, self.cur_span);
        }
        vx
    }

    /// Compile an expression; returns the producing output port and
    /// collects every created arc into `arcs`.
    fn compile_expr(&mut self, e: &Expr, arcs: &mut Vec<ArcId>) -> SynthResult<PortId> {
        Ok(match e {
            Expr::Const(v) => {
                let name = self.fresh("k");
                let vx = self.g.dp.add_const(name, *v);
                self.note_vertex(vx);
                self.g.dp.out_port(vx, 0)
            }
            Expr::Var(n, _) => {
                if let Some(&v) = self.regs.get(n) {
                    self.g.dp.out_port(v, 0)
                } else if let Some(&v) = self.inputs.get(n) {
                    self.g.dp.out_port(v, 0)
                } else {
                    return Err(SynthError::NotProper(format!("unknown name `{n}`")));
                }
            }
            Expr::Unary(op, inner) => {
                let p = self.compile_expr(inner, arcs)?;
                match op {
                    UnOp::Neg | UnOp::Not => {
                        let o = if *op == UnOp::Neg { Op::Neg } else { Op::Not };
                        let name = self.fresh("u");
                        let vx = self.g.dp.add_unit(name, 1, &[o])?;
                        self.note_vertex(vx);
                        self.connect(p, self.g.dp.in_port(vx, 0), arcs)?;
                        self.g.dp.out_port(vx, 0)
                    }
                    UnOp::LNot => {
                        // !x ≡ (x == 0)
                        let zname = self.fresh("k");
                        let z = self.g.dp.add_const(zname, 0);
                        self.note_vertex(z);
                        let name = self.fresh("u");
                        let vx = self.g.dp.add_unit(name, 2, &[Op::Eq])?;
                        self.note_vertex(vx);
                        self.connect(p, self.g.dp.in_port(vx, 0), arcs)?;
                        self.connect(self.g.dp.out_port(z, 0), self.g.dp.in_port(vx, 1), arcs)?;
                        self.g.dp.out_port(vx, 0)
                    }
                }
            }
            Expr::Binary(op, a, b) => {
                let pa = self.compile_expr(a, arcs)?;
                let pb = self.compile_expr(b, arcs)?;
                let o = compile_binop(*op);
                let name = self.fresh("op");
                let vx = self.g.dp.add_unit(name, 2, &[o])?;
                self.note_vertex(vx);
                self.connect(pa, self.g.dp.in_port(vx, 0), arcs)?;
                self.connect(pb, self.g.dp.in_port(vx, 1), arcs)?;
                self.g.dp.out_port(vx, 0)
            }
            Expr::Ternary(c, a, b) => {
                let pc = self.compile_expr(c, arcs)?;
                let pa = self.compile_expr(a, arcs)?;
                let pb = self.compile_expr(b, arcs)?;
                let name = self.fresh("mux");
                let vx = self.g.dp.add_unit(name, 3, &[Op::Mux])?;
                self.note_vertex(vx);
                // Mux: sel == 0 ⇒ in1, else in2. `c ? a : b` wants c≠0 ⇒ a.
                self.connect(pc, self.g.dp.in_port(vx, 0), arcs)?;
                self.connect(pb, self.g.dp.in_port(vx, 1), arcs)?;
                self.connect(pa, self.g.dp.in_port(vx, 2), arcs)?;
                self.g.dp.out_port(vx, 0)
            }
        })
    }

    /// Compile a branch condition; returns `(true_port, false_port, arcs)`,
    /// where the two ports are complementary outputs of **one** comparator
    /// vertex (provably conflict-free, Def. 3.2(3)).
    fn compile_cond(&mut self, cond: &Expr) -> SynthResult<(PortId, PortId, Vec<ArcId>)> {
        let mut arcs = Vec::new();
        if let Expr::Binary(op, a, b) = cond {
            let o = compile_binop(*op);
            if let Some(comp) = o.complement() {
                let pa = self.compile_expr(a, &mut arcs)?;
                let pb = self.compile_expr(b, &mut arcs)?;
                let name = self.fresh("cmp");
                let vx = self.g.dp.add_unit(name, 2, &[o, comp])?;
                self.note_vertex(vx);
                self.connect(pa, self.g.dp.in_port(vx, 0), &mut arcs)?;
                self.connect(pb, self.g.dp.in_port(vx, 1), &mut arcs)?;
                return Ok((self.g.dp.out_port(vx, 0), self.g.dp.out_port(vx, 1), arcs));
            }
        }
        // General condition: test root ≠ 0 / root == 0 on one vertex.
        let root = self.compile_expr(cond, &mut arcs)?;
        let zname = self.fresh("k");
        let z = self.g.dp.add_const(zname, 0);
        self.note_vertex(z);
        let name = self.fresh("cmp");
        let vx = self.g.dp.add_unit(name, 2, &[Op::Ne, Op::Eq])?;
        self.note_vertex(vx);
        self.connect(root, self.g.dp.in_port(vx, 0), &mut arcs)?;
        self.connect(
            self.g.dp.out_port(z, 0),
            self.g.dp.in_port(vx, 1),
            &mut arcs,
        )?;
        Ok((self.g.dp.out_port(vx, 0), self.g.dp.out_port(vx, 1), arcs))
    }

    /// Build a decide state: evaluates `cond` under a fresh place and
    /// latches the condition bit (observable work, Def. 3.2(5)).
    fn decide_state(
        &mut self,
        cond: &Expr,
        prefix: &str,
    ) -> SynthResult<(PlaceId, PortId, PortId)> {
        let (true_p, false_p, mut arcs) = self.compile_cond(cond)?;
        let rname = self.fresh("cbit");
        let creg = self.g.dp.add_register(rname);
        self.note_vertex(creg);
        let a = self.g.dp.connect(true_p, self.g.dp.in_port(creg, 0))?;
        if !self.cur_span.is_dummy() {
            self.src_map.arc.insert(a, self.cur_span);
        }
        arcs.push(a);
        let pname = self.fresh(prefix);
        let s = self.add_place(pname);
        for arc in arcs {
            self.g.ctl.add_ctrl(s, arc);
        }
        Ok((s, true_p, false_p))
    }

    fn compile_stmts(&mut self, stmts: &[Stmt], mut current: PlaceId) -> SynthResult<PlaceId> {
        for s in stmts {
            current = self.compile_stmt(s, current)?;
        }
        Ok(current)
    }

    fn compile_stmt(&mut self, stmt: &Stmt, current: PlaceId) -> SynthResult<PlaceId> {
        self.cur_span = stmt.span();
        match stmt {
            Stmt::Assign { target, expr, .. } => {
                let mut arcs = Vec::new();
                let root = self.compile_expr(expr, &mut arcs)?;
                let target_in = if let Some(&v) = self.regs.get(target) {
                    self.g.dp.in_port(v, 0)
                } else if let Some(&v) = self.outputs.get(target) {
                    self.g.dp.in_port(v, 0)
                } else {
                    return Err(SynthError::NotProper(format!(
                        "unknown assignment target `{target}`"
                    )));
                };
                self.connect(root, target_in, &mut arcs)?;
                let pname = self.fresh(&format!("s_{target}_"));
                let s = self.add_place(pname);
                for a in arcs {
                    self.g.ctl.add_ctrl(s, a);
                }
                self.seq(current, s)?;
                Ok(s)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => {
                let span = *span;
                let (s_d, true_p, false_p) = self.decide_state(cond, "if")?;
                self.seq(current, s_d)?;
                let jname = self.fresh("join");
                let s_j = self.add_place(jname);

                // then branch
                let tename = self.fresh("the");
                let s_te = self.add_place(tename);
                let ttname = self.fresh("t_then");
                let t_then = self.add_transition(ttname);
                self.g.ctl.flow_st(s_d, t_then)?;
                self.g.ctl.flow_ts(t_then, s_te)?;
                self.g.ctl.add_guard(t_then, true_p);
                let exit_t = self.compile_stmts(then_body, s_te)?;
                self.cur_span = span;
                self.seq(exit_t, s_j)?;

                // else branch
                let tename = self.fresh("t_else");
                let t_else = self.add_transition(tename);
                self.g.ctl.flow_st(s_d, t_else)?;
                self.g.ctl.add_guard(t_else, false_p);
                if else_body.is_empty() {
                    self.g.ctl.flow_ts(t_else, s_j)?;
                } else {
                    let eename = self.fresh("ele");
                    let s_ee = self.add_place(eename);
                    self.g.ctl.flow_ts(t_else, s_ee)?;
                    let exit_e = self.compile_stmts(else_body, s_ee)?;
                    self.cur_span = span;
                    self.seq(exit_e, s_j)?;
                }
                Ok(s_j)
            }
            Stmt::While { cond, body, span } => {
                let span = *span;
                let (s_d, true_p, false_p) = self.decide_state(cond, "wh")?;
                self.seq(current, s_d)?;
                // body
                let bename = self.fresh("body");
                let s_be = self.add_place(bename);
                let tbname = self.fresh("t_loop");
                let t_body = self.add_transition(tbname);
                self.g.ctl.flow_st(s_d, t_body)?;
                self.g.ctl.flow_ts(t_body, s_be)?;
                self.g.ctl.add_guard(t_body, true_p);
                let exit_b = self.compile_stmts(body, s_be)?;
                self.cur_span = span;
                self.seq(exit_b, s_d)?; // back edge
                                        // exit
                let xname = self.fresh("wx");
                let s_x = self.add_place(xname);
                let txname = self.fresh("t_exit");
                let t_exit = self.add_transition(txname);
                self.g.ctl.flow_st(s_d, t_exit)?;
                self.g.ctl.flow_ts(t_exit, s_x)?;
                self.g.ctl.add_guard(t_exit, false_p);
                Ok(s_x)
            }
            Stmt::Par { branches, span } => {
                let span = *span;
                let fname = self.fresh("t_fork");
                let t_fork = self.add_transition(fname);
                self.g.ctl.flow_st(current, t_fork)?;
                let jname = self.fresh("t_join");
                let t_join = self.add_transition(jname);
                for (i, branch) in branches.iter().enumerate() {
                    self.cur_span = span;
                    let bename = self.fresh(&format!("br{i}_"));
                    let s_be = self.add_place(bename);
                    self.g.ctl.flow_ts(t_fork, s_be)?;
                    let exit_b = self.compile_stmts(branch, s_be)?;
                    self.g.ctl.flow_st(exit_b, t_join)?;
                }
                self.cur_span = span;
                let jpname = self.fresh("pjoin");
                let s_j = self.add_place(jpname);
                self.g.ctl.flow_ts(t_join, s_j)?;
                Ok(s_j)
            }
        }
    }
}

/// Map a source binary operator to its data-path operation.
pub(crate) fn compile_binop(op: BinOp) -> Op {
    match op {
        BinOp::Add => Op::Add,
        BinOp::Sub => Op::Sub,
        BinOp::Mul => Op::Mul,
        BinOp::Div => Op::Div,
        BinOp::Rem => Op::Rem,
        BinOp::And => Op::And,
        BinOp::Or => Op::Or,
        BinOp::Xor => Op::Xor,
        BinOp::Shl => Op::Shl,
        BinOp::Shr => Op::Shr,
        BinOp::Eq => Op::Eq,
        BinOp::Ne => Op::Ne,
        BinOp::Lt => Op::Lt,
        BinOp::Le => Op::Le,
        BinOp::Gt => Op::Gt,
        BinOp::Ge => Op::Ge,
    }
}

/// Elide idle glue places: an unmarked place with no controlled arcs, one
/// entry transition and one unguarded exit transition whose only input it
/// is, sits on a straight line and only wastes a step. Also folds a marked
/// idle entry place into its successors.
pub fn compact(g: &mut Etpn) {
    loop {
        let mut changed = false;
        let places: Vec<PlaceId> = g.ctl.places().ids().collect();
        for p in places {
            let place = g.ctl.place(p);
            if !place.ctrl.is_empty() {
                continue;
            }
            // Marked idle entry: push the initial token forward.
            if place.marked0 && place.pre.is_empty() && place.post.len() == 1 {
                let t = place.post[0];
                let tr = g.ctl.transition(t).clone();
                if tr.pre == [p] && tr.guards.is_empty() && !tr.post.is_empty() {
                    for q in tr.post.clone() {
                        g.ctl.set_marked0(q, true);
                    }
                    g.ctl.remove_transition(t).expect("live transition");
                    g.ctl.remove_place(p).expect("detached place");
                    changed = true;
                    continue;
                }
            }
            if place.marked0 || place.pre.is_empty() || place.post.len() != 1 {
                continue;
            }
            let t_out = place.post[0];
            let feeders = place.pre.clone();
            if feeders.contains(&t_out) {
                continue; // self-loop through the place
            }
            let tr_out = g.ctl.transition(t_out).clone();
            if tr_out.pre != [p] || !tr_out.guards.is_empty() || tr_out.post.contains(&p) {
                continue;
            }
            // Splicing must not create duplicate flow (that would change
            // token counts).
            let conflict = feeders.iter().any(|&t_in| {
                let t_in_post = &g.ctl.transition(t_in).post;
                tr_out.post.iter().any(|q| t_in_post.contains(q))
            });
            if conflict {
                continue;
            }
            for &t_in in &feeders {
                g.ctl.unflow_ts(t_in, p);
            }
            g.ctl.unflow_st(p, t_out);
            for q in tr_out.post.clone() {
                g.ctl.unflow_ts(t_out, q);
                for &t_in in &feeders {
                    g.ctl.flow_ts(t_in, q).expect("no duplicate flow");
                }
            }
            g.ctl.remove_transition(t_out).expect("live transition");
            g.ctl.remove_place(p).expect("detached place");
            changed = true;
        }
        if !changed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpn_analysis::proper::check_properly_designed;
    use etpn_lang::parse;
    use etpn_sim::{ScriptedEnv, Termination};

    fn compile_src(src: &str) -> CompiledDesign {
        compile(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn straight_line_add() {
        let d = compile_src("design t { in a, b; out y; reg r; r = a + b; y = r; }");
        let env = ScriptedEnv::new()
            .with_stream("a", [3])
            .with_stream("b", [4]);
        let trace = d.simulator(env).run(50).unwrap();
        assert_eq!(trace.values_on_named_output(&d.etpn, "y"), vec![7]);
        assert_eq!(trace.termination, Termination::Terminated);
    }

    #[test]
    fn compiled_design_is_properly_designed() {
        let d = compile_src(
            "design t { in a; out y; reg r = 0;
                while (r < a) { r = r + 1; }
                y = r; }",
        );
        let report = check_properly_designed(&d.etpn);
        assert!(report.is_proper(), "{}", report.summary());
    }

    #[test]
    fn while_loop_counts() {
        let d = compile_src(
            "design t { in a; out y; reg r = 0;
                while (r < a) { r = r + 1; }
                y = r; }",
        );
        let env = ScriptedEnv::new().with_stream("a", [5]).repeat_last();
        let trace = d.simulator(env).run(200).unwrap();
        assert_eq!(trace.values_on_named_output(&d.etpn, "y"), vec![5]);
    }

    #[test]
    fn if_else_branches() {
        let src = "design t { in x; out y; reg r;
            r = x;
            if (r > 0) { r = r * 2; } else { r = r - 1; }
            y = r; }";
        let d = compile_src(src);
        let run = |v: i64| {
            let env = ScriptedEnv::new().with_stream("x", [v]);
            d.simulator(env)
                .run(100)
                .unwrap()
                .values_on_named_output(&d.etpn, "y")
        };
        assert_eq!(run(5), vec![10]);
        assert_eq!(run(-4), vec![-5]);
        assert_eq!(run(0), vec![-1]);
    }

    #[test]
    fn if_without_else() {
        let src = "design t { in x; out y; reg r;
            r = x;
            if (r < 0) { r = -r; }
            y = r; }";
        let d = compile_src(src);
        let run = |v: i64| {
            let env = ScriptedEnv::new().with_stream("x", [v]);
            d.simulator(env)
                .run(100)
                .unwrap()
                .values_on_named_output(&d.etpn, "y")
        };
        assert_eq!(run(-7), vec![7]);
        assert_eq!(run(7), vec![7]);
    }

    #[test]
    fn par_branches_run_concurrently() {
        let src = "design t { in a, b; out ya, yb; reg r1, r2;
            r1 = a;
            r2 = b;
            par { { r1 = r1 + 1; } { r2 = r2 * 2; } }
            ya = r1;
            yb = r2; }";
        let d = compile_src(src);
        let env = ScriptedEnv::new()
            .with_stream("a", [10])
            .with_stream("b", [20]);
        let trace = d.simulator(env).run(100).unwrap();
        assert_eq!(trace.values_on_named_output(&d.etpn, "ya"), vec![11]);
        assert_eq!(trace.values_on_named_output(&d.etpn, "yb"), vec![40]);
        // The two parallel body states are ∥ in the control relations.
        let rel = etpn_core::ControlRelations::compute(&d.etpn.ctl);
        let s1 = d.etpn.ctl.place_by_name("s_r1_10").map(|_| ()); // name is fresh-numbered; find differently
        let _ = s1;
        let body_places: Vec<PlaceId> = d
            .etpn
            .ctl
            .places()
            .iter()
            .filter(|(_, pl)| pl.name.starts_with("s_r1_") || pl.name.starts_with("s_r2_"))
            .map(|(id, _)| id)
            .collect();
        // Exactly the two `par` body assignment states are mutually parallel.
        let par_pairs: Vec<_> = body_places
            .iter()
            .flat_map(|&a| body_places.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a < b && rel.parallel(a, b))
            .collect();
        assert_eq!(par_pairs.len(), 1, "{par_pairs:?}");
    }

    #[test]
    fn ternary_compiles_to_mux() {
        let src = "design t { in x; out y; reg r;
            r = x;
            r = r > 0 ? r : -r;
            y = r; }";
        let d = compile_src(src);
        let run = |v: i64| {
            let env = ScriptedEnv::new().with_stream("x", [v]);
            d.simulator(env)
                .run(100)
                .unwrap()
                .values_on_named_output(&d.etpn, "y")
        };
        assert_eq!(run(-9), vec![9]);
        assert_eq!(run(9), vec![9]);
    }

    #[test]
    fn gcd_computes() {
        let src = "design gcd { in a, b; out g; reg x, y;
            x = a;
            y = b;
            while (x != y) {
                if (x > y) { x = x - y; } else { y = y - x; }
            }
            g = x; }";
        let d = compile_src(src);
        let gcd = |a: i64, b: i64| {
            let env = ScriptedEnv::new()
                .with_stream("a", [a])
                .with_stream("b", [b]);
            d.simulator(env)
                .run(2000)
                .unwrap()
                .values_on_named_output(&d.etpn, "g")
        };
        assert_eq!(gcd(48, 36), vec![12]);
        assert_eq!(gcd(17, 5), vec![1]);
        assert_eq!(gcd(7, 7), vec![7]);
    }

    #[test]
    fn compaction_removes_idle_glue() {
        let src = "design t { in x; out y; reg r;
            r = x;
            if (r > 0) { r = r + 1; }
            y = r; }";
        let d = compile_src(src);
        // No surviving idle places except possibly none: every remaining
        // place either controls arcs or is structurally necessary.
        let idle: Vec<_> = d
            .etpn
            .ctl
            .places()
            .iter()
            .filter(|(_, p)| p.ctrl.is_empty())
            .collect();
        assert!(idle.is_empty(), "idle places remain: {idle:?}");
    }

    #[test]
    fn lnot_and_logic() {
        let src = "design t { in x; out y; reg r;
            r = x;
            if (!r) { r = 100; }
            y = r; }";
        let d = compile_src(src);
        let run = |v: i64| {
            let env = ScriptedEnv::new().with_stream("x", [v]);
            d.simulator(env)
                .run(100)
                .unwrap()
                .values_on_named_output(&d.etpn, "y")
        };
        assert_eq!(run(0), vec![100]);
        assert_eq!(run(3), vec![3]);
    }
}
