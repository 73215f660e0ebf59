//! Seeded inputs and request streams for the four workloads.
//!
//! Everything here is a pure function of the workload seed: the same
//! seed yields byte-identical request lines (see the tests). Programs come
//! from `ddpa-gen`; the server only ever sees the generated text.

use std::collections::BTreeMap;

use ddpa_constraints::{ConstraintProgram, NodeId};
use ddpa_serve::proto::{build, QuerySpec};
use ddpa_support::Rng;

/// Assignments per cold-deref program (`RandomConfig::sized`).
pub const COLD_SIZE: usize = 2_000;
/// Cold-deref programs; sessions cycle through them. Like warm-edit's,
/// they come from fixed generator seeds (`0..COLD_PROGRAMS`): the cost of
/// a random program's queries is heavy-tailed, so programs drawn from the
/// workload seed would let a few programs decide a run. The workload
/// seed draws each session's query order.
pub const COLD_PROGRAMS: usize = 24;
/// Assignments in each warm-edit program (`RandomConfig::sized`).
pub const WARM_SIZE: usize = 4_000;
/// Generator seed of the warm-edit program. It is fixed: answer sizes
/// differ tenfold between random programs, so a seeded program would let
/// the seed, not the code under test, decide warm-edit's throughput. The
/// workload seed draws the read and edit streams.
pub const WARM_PROGRAM: u64 = 0;
/// Function counts of the callgraph-minic programs (`MiniCConfig::sized`,
/// generator seeds 0, 1 and 2); sessions cycle through one program of each
/// size. The workload seed draws each session's query order.
pub const MINIC_FUNCS: [usize; 3] = [1_000, 2_000, 3_000];
/// Constraints per wide-parallel program (`WideConfig::sized`).
pub const WIDE_SIZE: usize = 5_000;
/// Wide-parallel programs (generator seeds `0..WIDE_PROGRAMS`); sessions
/// cycle through them. The workload seed draws each session's
/// `pointed-to-by` order.
pub const WIDE_PROGRAMS: usize = 3;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdDeref,
    WarmEdit,
    CallgraphMinic,
    WideParallel,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdDeref,
        Workload::WarmEdit,
        Workload::CallgraphMinic,
        Workload::WideParallel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdDeref => "cold-deref",
            Workload::WarmEdit => "warm-edit",
            Workload::CallgraphMinic => "callgraph-minic",
            Workload::WideParallel => "wide-parallel",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Server flags beyond `serve --addr 127.0.0.1:0`.
    pub fn server_flags(self) -> &'static [&'static str] {
        match self {
            Workload::WideParallel => &["--workers", "2"],
            _ => &[],
        }
    }

    /// Distinct programs a run cycles through (each session is still
    /// opened fresh).
    pub fn pool(self) -> usize {
        match self {
            Workload::ColdDeref => COLD_PROGRAMS,
            Workload::CallgraphMinic => MINIC_FUNCS.len(),
            Workload::WideParallel => WIDE_PROGRAMS,
            Workload::WarmEdit => 1,
        }
    }
}

/// An independent stream seed for item `k` of a workload seed
/// (SplitMix64 finalizer).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One fresh session: the program text the client uploads, and the
/// queries it then sends one at a time.
pub struct Job {
    pub session: String,
    pub text: String,
    pub minic: bool,
    /// Open the session with `"parallel_query": true`.
    pub parallel: bool,
    pub queries: Vec<QuerySpec>,
}

impl Job {
    pub fn open_request(&self) -> ddpa_obs::JsonValue {
        let open = build::open(&self.session, &self.text, self.minic, None);
        if self.parallel {
            build::with_parallel_query(open)
        } else {
            open
        }
    }
}

/// All dereferenced pointers of `cp`, sorted by node id.
pub fn deref_pointers(cp: &ConstraintProgram) -> Vec<NodeId> {
    let mut q: Vec<NodeId> = cp
        .loads()
        .iter()
        .map(|l| l.ptr)
        .chain(cp.stores().iter().map(|s| s.ptr))
        .collect();
    q.sort_unstable();
    q.dedup();
    q
}

/// Puts `items` in a random order drawn from `rng` (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Appends one edit line to a session source, as `add-constraints` does.
pub fn append_edit(source: &mut String, line: &str) {
    if !source.is_empty() && !source.ends_with('\n') {
        source.push('\n');
    }
    source.push_str(line);
}

/// The address-taken objects of `cp`, sorted by node id.
pub fn objects(cp: &ConstraintProgram) -> Vec<NodeId> {
    let mut o: Vec<NodeId> = cp.addr_ofs().iter().map(|a| a.obj).collect();
    o.sort_unstable();
    o.dedup();
    o
}

/// The program a session serves for constraint text `text`: the session
/// re-parses the printer's canonical form, so call-site numbering follows
/// that form.
pub fn served_program(text: &str) -> ConstraintProgram {
    let cp = ddpa_constraints::parse_constraints(text).expect("generated text parses");
    let canonical = ddpa_constraints::print_constraints(&cp);
    ddpa_constraints::parse_constraints(&canonical).expect("canonical text parses")
}

/// Lowers MiniC source the way a session does before serving it.
pub fn served_minic_program(source: &str) -> ConstraintProgram {
    let ast = ddpa_ir::parse(source).expect("generated MiniC parses");
    ddpa_ir::check(&ast).expect("generated MiniC checks");
    let cp = ddpa_constraints::lower(&ast).expect("generated MiniC lowers");
    served_program(&ddpa_constraints::print_constraints(&cp))
}

/// Job `k` of a session-per-program workload (not warm-edit), with the
/// program the server will serve for it. Job `k` repeats job
/// `k % workload.pool()`.
pub fn job(workload: Workload, seed: u64, k: u64) -> (Job, ConstraintProgram) {
    let slot = k % workload.pool() as u64;
    let s = sub_seed(seed, slot);
    match workload {
        Workload::ColdDeref => {
            let cp = ddpa_gen::generate_random(&ddpa_gen::RandomConfig::sized(slot, COLD_SIZE));
            let text = ddpa_constraints::print_constraints(&cp);
            let program = served_program(&text);
            let mut pointers = deref_pointers(&program);
            shuffle(&mut pointers, &mut Rng::seed_from_u64(s));
            let queries = pointers
                .into_iter()
                .map(|n| QuerySpec::PointsTo {
                    name: program.display_node(n),
                })
                .collect();
            let job = Job {
                session: format!("cold-{slot}"),
                text,
                minic: false,
                parallel: false,
                queries,
            };
            (job, program)
        }
        Workload::CallgraphMinic => {
            let funcs = MINIC_FUNCS[slot as usize];
            let ast = ddpa_gen::generate_minic(&ddpa_gen::MiniCConfig::sized(slot, funcs));
            let text = ddpa_ir::pretty(&ast);
            let program = served_minic_program(&text);
            let mut sites = program.indirect_callsites().to_vec();
            shuffle(&mut sites, &mut Rng::seed_from_u64(s));
            let queries = sites
                .into_iter()
                .map(|cs| QuerySpec::CallTargets {
                    site: u64::from(cs.as_u32()),
                })
                .collect();
            let job = Job {
                session: format!("minic-{slot}"),
                text,
                minic: true,
                parallel: false,
                queries,
            };
            (job, program)
        }
        Workload::WideParallel => {
            let cp = ddpa_gen::generate_wide(&ddpa_gen::WideConfig::sized(slot, WIDE_SIZE));
            let text = ddpa_constraints::print_constraints(&cp);
            let program = served_program(&text);
            let mut objects = objects(&program);
            shuffle(&mut objects, &mut Rng::seed_from_u64(s));
            let mut queries = vec![QuerySpec::PointsTo { name: "hub".into() }];
            queries.extend(objects.into_iter().map(|o| QuerySpec::PointedToBy {
                name: program.display_node(o),
            }));
            let job = Job {
                session: format!("wide-{slot}"),
                text,
                minic: false,
                parallel: true,
                queries,
            };
            (job, program)
        }
        Workload::WarmEdit => unreachable!("warm-edit runs one long session; see WarmPlan"),
    }
}

// ---------------------------------------------------------------------
// warm-edit
// ---------------------------------------------------------------------

/// Operations per `add-constraints` edit. Edits come at a fixed period:
/// each edit dirties part of the warm memo, so a random edit count would
/// let the stream, not the code, set the throughput.
pub const EDIT_PERIOD: u64 = 2048;
/// Seeds the edit lines, which are the same for every workload seed: how
/// much of the memo an edit dirties, and so what the reads after it
/// recompute, differs widely between edits, and with seeded edits two
/// seeds' throughput differed by a third on the same host minutes.
const EDIT_SEED: u64 = 0;
/// Objects sampled for `pointed-to-by` reads.
const PTB_POOL: usize = 64;

/// One warm-edit operation, as indices into the [`WarmPlan`] pools.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    PointsTo(u32),
    PointedToBy(u32),
    MayAlias(u32, u32),
    CallTargets(u32),
    /// One constraint line appended to the session.
    Edit(String),
}

/// The warm-edit program and the name pools its operations draw from.
pub struct WarmPlan {
    pub session: String,
    /// Text uploaded at `open`.
    pub text: String,
    /// The canonical text the session serves; edits append to it.
    pub canonical: String,
    pub program: ConstraintProgram,
    pub pointers: Vec<String>,
    pub objects: Vec<String>,
    pub sites: Vec<u64>,
    /// Per generator community with at least two names and one object:
    /// its names and its objects, for local edits.
    communities: Vec<(Vec<String>, Vec<String>)>,
    /// Seeds this plan's reads.
    stream_seed: u64,
}

impl WarmPlan {
    /// The plan for the warm-edit program with operation streams drawn
    /// from `seed`.
    pub fn new(seed: u64) -> WarmPlan {
        let cp = ddpa_gen::generate_random(&ddpa_gen::RandomConfig::sized(WARM_PROGRAM, WARM_SIZE));
        let text = ddpa_constraints::print_constraints(&cp);
        let program = served_program(&text);
        let canonical = ddpa_constraints::print_constraints(&program);
        let name = |n: NodeId| program.display_node(n);
        let pointers: Vec<String> = deref_pointers(&program).into_iter().map(name).collect();
        let all_objects = objects(&program);
        let mut rng = Rng::seed_from_u64(WARM_PROGRAM);
        let objects: Vec<String> = (0..PTB_POOL.min(all_objects.len()))
            .map(|_| name(all_objects[rng.gen_range(0..all_objects.len())]))
            .collect();
        let sites = program
            .indirect_callsites()
            .iter()
            .map(|cs| u64::from(cs.as_u32()))
            .collect();
        // Generated variables are `v<i>`, in community `i / BLOCK`.
        let community = |n: &str| -> Option<usize> {
            let i: usize = n.strip_prefix('v')?.parse().ok()?;
            Some(i / ddpa_gen::random::BLOCK)
        };
        let mut groups: BTreeMap<usize, (Vec<String>, Vec<String>)> = BTreeMap::new();
        for n in program.node_ids() {
            let s = name(n);
            if let Some(c) = community(&s) {
                groups.entry(c).or_default().0.push(s);
            }
        }
        for &o in &all_objects {
            let s = name(o);
            if let Some(c) = community(&s) {
                groups.entry(c).or_default().1.push(s);
            }
        }
        let communities: Vec<_> = groups
            .into_values()
            .filter(|(names, objs)| names.len() >= 2 && !objs.is_empty())
            .collect();
        assert!(
            !communities.is_empty(),
            "generated communities hold objects"
        );
        WarmPlan {
            session: "warm".into(),
            text,
            canonical,
            program,
            pointers,
            objects,
            sites,
            communities,
            stream_seed: sub_seed(seed, 100),
        }
    }

    /// Every read the op streams can issue, used to warm the snapshot.
    pub fn all_reads(&self) -> Vec<QuerySpec> {
        let mut reads: Vec<QuerySpec> = (0..self.pointers.len() as u32)
            .map(|i| self.spec(&Op::PointsTo(i)).expect("read"))
            .collect();
        reads.extend(
            (0..self.objects.len() as u32).map(|i| self.spec(&Op::PointedToBy(i)).expect("read")),
        );
        reads.extend(
            (0..self.sites.len() as u32).map(|i| self.spec(&Op::CallTargets(i)).expect("read")),
        );
        reads
    }

    /// The wire form of a read.
    pub fn spec(&self, op: &Op) -> Option<QuerySpec> {
        let p = |i: &u32| self.pointers[*i as usize].clone();
        Some(match op {
            Op::PointsTo(i) => QuerySpec::PointsTo { name: p(i) },
            Op::PointedToBy(i) => QuerySpec::PointedToBy {
                name: self.objects[*i as usize].clone(),
            },
            Op::MayAlias(a, b) => QuerySpec::MayAlias { a: p(a), b: p(b) },
            Op::CallTargets(i) => QuerySpec::CallTargets {
                site: self.sites[*i as usize],
            },
            Op::Edit(_) => return None,
        })
    }

    /// The request line for `op`; `traced` adds `"trace": true` to reads.
    pub fn request(&self, op: &Op, traced: bool) -> ddpa_obs::JsonValue {
        match self.spec(op) {
            Some(spec) => {
                let q = build::query(&self.session, &spec, None, None);
                if traced {
                    build::with_trace(q)
                } else {
                    q
                }
            }
            None => match op {
                Op::Edit(line) => build::add_constraints(&self.session, line),
                _ => unreachable!("reads have specs"),
            },
        }
    }

    /// The endless op stream: reads drawn from the workload seed, edits
    /// from [`EDIT_SEED`].
    pub fn ops(&self) -> OpStream<'_> {
        OpStream {
            plan: self,
            reads: Rng::seed_from_u64(self.stream_seed),
            edits: Rng::seed_from_u64(EDIT_SEED),
            next: 0,
        }
    }

    /// A copy or address-of line between existing names of one function.
    fn edit(&self, rng: &mut Rng) -> String {
        let (names, objs) = &self.communities[rng.gen_range(0..self.communities.len())];
        let dst = &names[rng.gen_range(0..names.len())];
        if rng.gen_bool(0.5) {
            let src = &names[rng.gen_range(0..names.len())];
            format!("{dst} = {src}")
        } else {
            let obj = &objs[rng.gen_range(0..objs.len())];
            format!("{dst} = &{obj}")
        }
    }
}

/// See [`WarmPlan::ops`].
pub struct OpStream<'a> {
    plan: &'a WarmPlan,
    reads: Rng,
    edits: Rng,
    /// Operations issued.
    next: u64,
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let plan = self.plan;
        self.next += 1;
        if self.next.is_multiple_of(EDIT_PERIOD) {
            return Some(Op::Edit(plan.edit(&mut self.edits)));
        }
        let rng = &mut self.reads;
        let ptr = |rng: &mut Rng| rng.gen_range(0..plan.pointers.len()) as u32;
        Some(match rng.gen_range(0..10u32) {
            0..=4 => Op::PointsTo(ptr(rng)),
            5..=6 => Op::PointedToBy(rng.gen_range(0..plan.objects.len()) as u32),
            7..=8 => Op::MayAlias(ptr(rng), ptr(rng)),
            _ if plan.sites.is_empty() => Op::PointsTo(ptr(rng)),
            _ => Op::CallTargets(rng.gen_range(0..plan.sites.len()) as u32),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_lines(job: &Job) -> Vec<String> {
        let mut lines = vec![job.open_request().to_string()];
        lines.extend(
            job.queries
                .iter()
                .map(|q| build::query(&job.session, q, None, None).to_string()),
        );
        lines.push(build::close(&job.session).to_string());
        lines
    }

    fn warm_lines(seed: u64, n: usize) -> String {
        let plan = WarmPlan::new(seed);
        let mut out = build::open(&plan.session, &plan.text, false, None).to_string();
        for op in plan.ops().take(n) {
            out.push('\n');
            out.push_str(&plan.request(&op, false).to_string());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_request_streams() {
        for w in [
            Workload::ColdDeref,
            Workload::WideParallel,
            Workload::CallgraphMinic,
        ] {
            let a = job_lines(&job(w, 7, 3).0);
            assert_eq!(a, job_lines(&job(w, 7, 3).0), "{}", w.name());
            assert_ne!(a, job_lines(&job(w, 8, 3).0), "{}", w.name());
        }
        let a = warm_lines(7, 5_000);
        assert_eq!(a, warm_lines(7, 5_000));
        assert_ne!(a, warm_lines(8, 5_000));
    }

    #[test]
    fn warm_streams_mix_reads_and_edits() {
        let plan = WarmPlan::new(3);
        let ops: Vec<Op> = plan.ops().take(20_000).collect();
        for (i, op) in ops.iter().enumerate() {
            let edit = (i as u64 + 1).is_multiple_of(EDIT_PERIOD);
            assert_eq!(edit, matches!(op, Op::Edit(_)), "op {i}");
        }
        for op in &ops {
            if let Op::Edit(line) = op {
                let mut text = plan.canonical.clone();
                append_edit(&mut text, line);
                let cp = ddpa_constraints::parse_constraints(&text).expect("edit parses");
                assert_eq!(
                    cp.num_nodes(),
                    plan.program.num_nodes(),
                    "edits name existing nodes"
                );
            }
        }
    }
}
