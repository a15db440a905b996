//! The three workloads: seeded inputs, server set-up, and the per-round
//! request stream.
//!
//! Every input is generated from `--seed` before it is submitted; the
//! server only ever sees the generated graphs, prompts and chains.

use chatgraph_apis::{ApiCall, ApiChain};
use chatgraph_core::{
    generate_corpus, ChatGraphConfig, CorpusParams, Prompt, QaExample, Request, ServeConfig,
    SessionCore, SessionServer, TenantId,
};
use chatgraph_graph::generators::{
    corrupt_kg, knowledge_graph, molecule_database, social_network, KgParams, MoleculeParams,
    SocialParams,
};
use chatgraph_graph::Graph;
use chatgraph_support::hash::Fnv64;
use chatgraph_support::rng::{ChaCha12Rng, RngExt, SeedableRng};
use std::path::Path;
use std::sync::Arc;

/// Tenants served concurrently, each a closed-loop client.
pub const TENANTS: usize = 8;
/// Drain pool width.
pub const POOL_WORKERS: usize = 2;
/// Size of the finetuning corpus `SessionCore::bootstrap` trains on.
pub const FINETUNE_CORPUS: usize = 384;
/// Molecules in each chat tenant's similarity-search database.
const MOLECULE_DB: usize = 30;
/// Nodes in each `chat_resident` graph (two tenants share each graph).
const RESIDENT_NODES: usize = 500;
/// Entities in each `edit_durable` knowledge graph.
const KG_NODES: usize = 5000;
/// Zipf exponent of the `chat_resident` intent popularity.
const ZIPF_S: f64 = 1.0;
/// Paraphrases per intent in the `chat_resident` question pool. A turn picks
/// its intent by popularity and its wording uniformly, so no single
/// paraphrase carries a large share of the turns.
const PARAPHRASES: usize = 32;
/// Index of the `chat_resident` editor: a ninth tenant, opened first, with
/// a resident social graph of its own that no chat tenant reads. It confirms
/// one `relabel_nodes` Person↔User per round, so the workload has a write
/// latency while the eight chat tenants stay text-only and keep their
/// shared graphs, memo keys and contexts unchanged. Its requests count only
/// in `write_latency_p50_ms`.
pub const EDITOR: usize = TENANTS;
/// The corpus intents asked about social networks.
const SOCIAL_INTENTS: &[&str] = &[
    "social_report",
    "communities",
    "community_count",
    "influencers",
    "connectivity",
    "bridges",
    "weak_links",
    "cut_nodes",
    "central_users",
];
/// Questions per `chat_fresh` corpus chunk: whole intent cycles, whole rounds.
const FRESH_CHUNK: usize = 19 * TENANTS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChatFresh,
    ChatResident,
    EditDurable,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "chat_fresh" => Some(Workload::ChatFresh),
            "chat_resident" => Some(Workload::ChatResident),
            "edit_durable" => Some(Workload::EditDurable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatFresh => "chat_fresh",
            Workload::ChatResident => "chat_resident",
            Workload::EditDurable => "edit_durable",
        }
    }

    /// Rounds whose answers feed `answer_digest` and `chain_accuracy`: a
    /// fixed prefix every run completes, so both repeat exactly per seed.
    pub fn check_rounds(self) -> usize {
        match self {
            Workload::ChatFresh => 2 * FRESH_CHUNK / TENANTS,
            Workload::ChatResident => 40,
            Workload::EditDurable => 16,
        }
    }

    /// Rounds after which the request pattern repeats (intent rotation,
    /// edit toggles); timed phases cover whole cycles.
    pub fn cycle_rounds(self) -> usize {
        match self {
            Workload::ChatFresh => FRESH_CHUNK / TENANTS,
            Workload::ChatResident => 2,
            Workload::EditDurable => 8,
        }
    }

    pub fn is_chat(self) -> bool {
        self != Workload::EditDurable
    }
}

/// Derives an independent stream seed from the run seed and a tag.
pub fn mix(seed: u64, tag: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(seed);
    h.write_str(tag);
    h.finish()
}

/// One request of one round, with what a correct answer looks like.
pub struct Turn {
    pub tenant: usize,
    pub request: Request,
    /// Corpus truths of a chat turn; empty for a confirmed `Execute`.
    pub truths: Vec<ApiChain>,
}

/// Seeded inputs and the deterministic request stream of one workload.
pub struct Inputs {
    pub workload: Workload,
    seed: u64,
    /// Per-tenant graph uploaded during set-up, indexed by tenant (empty
    /// for `chat_fresh`); [`set_up`] moves them into the sessions.
    pub uploads: Vec<Graph>,
    /// Similarity-search database of every chat tenant; moved likewise.
    pub database: Vec<Graph>,
    /// `chat_resident` questions with their truths, grouped by intent in
    /// popularity order.
    questions: Vec<Vec<(String, Vec<ApiChain>)>>,
    zipf_cdf: Vec<f64>,
    rng: ChaCha12Rng,
    fresh: (usize, Vec<QaExample>),
    next_round: usize,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let database = if workload.is_chat() {
            molecule_database(MOLECULE_DB, &MoleculeParams::default(), mix(seed, "db"))
        } else {
            Vec::new()
        };
        let uploads = match workload {
            Workload::ChatFresh => Vec::new(),
            Workload::ChatResident => {
                let graphs: Vec<Graph> = (0..TENANTS / 2)
                    .map(|i| {
                        social_network(
                            &SocialParams::sized(RESIDENT_NODES),
                            mix(seed, &format!("resident{i}")),
                        )
                    })
                    .collect();
                let mut uploads: Vec<Graph> = (0..TENANTS).map(|t| graphs[t / 2].clone()).collect();
                uploads.push(social_network(
                    &SocialParams::sized(RESIDENT_NODES),
                    mix(seed, "editor"),
                ));
                uploads
            }
            Workload::EditDurable => (0..TENANTS)
                .map(|t| {
                    let s = mix(seed, &format!("kg{t}"));
                    let mut g = knowledge_graph(&KgParams::sized(KG_NODES), s);
                    corrupt_kg(&mut g, 0.1, 0.05, s);
                    g
                })
                .collect(),
        };
        let mut questions: Vec<Vec<(String, Vec<ApiChain>)>> = Vec::new();
        if workload == Workload::ChatResident {
            questions = vec![Vec::new(); SOCIAL_INTENTS.len()];
            let params = CorpusParams {
                size: FRESH_CHUNK / TENANTS * PARAPHRASES,
                small_graphs: true,
            };
            for e in generate_corpus(&params, mix(seed, "questions")) {
                if let Some(i) = SOCIAL_INTENTS.iter().position(|&n| n == e.intent) {
                    questions[i].push((e.question, e.truths));
                }
            }
        }
        let weights: Vec<f64> = (0..questions.len())
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Inputs {
            workload,
            seed,
            uploads,
            database,
            questions,
            zipf_cdf,
            rng: ChaCha12Rng::seed_from_u64(mix(seed, "stream")),
            fresh: (usize::MAX, Vec::new()),
            next_round: 0,
        }
    }

    /// The requests of the next round, one per tenant, in the order the
    /// server claims them (the editor, opened first, leads). Rounds must be
    /// drawn in order; the stream is a pure function of the seed.
    pub fn next_round(&mut self) -> Vec<Turn> {
        let round = self.next_round;
        self.next_round += 1;
        let editor = (self.workload == Workload::ChatResident).then(|| {
            // The k-th edit renames Person→User for even k and back for odd
            // k, so the editor's graph returns to earlier contents.
            let (from, to) = if round.is_multiple_of(2) {
                ("Person", "User")
            } else {
                ("User", "Person")
            };
            Turn {
                tenant: EDITOR,
                request: Request::Execute(relabel(from, to)),
                truths: Vec::new(),
            }
        });
        let turns: Vec<Turn> = (0..TENANTS)
            .map(|tenant| self.turn(round, tenant))
            .collect();
        editor.into_iter().chain(turns).collect()
    }

    fn turn(&mut self, round: usize, tenant: usize) -> Turn {
        match self.workload {
            Workload::ChatFresh => {
                let index = round * TENANTS + tenant;
                let chunk = index / FRESH_CHUNK;
                if self.fresh.0 != chunk {
                    let params = CorpusParams {
                        size: FRESH_CHUNK,
                        small_graphs: false,
                    };
                    let seed = mix(self.seed, &format!("fresh{chunk}"));
                    self.fresh = (chunk, generate_corpus(&params, seed));
                }
                let e = &self.fresh.1[index % FRESH_CHUNK];
                Turn {
                    tenant,
                    request: Request::ChatAndRun(Prompt::with_graph(
                        e.question.clone(),
                        e.graph.clone(),
                    )),
                    truths: e.truths.clone(),
                }
            }
            Workload::ChatResident => {
                let u: f64 = self.rng.random();
                let intent = self
                    .zipf_cdf
                    .partition_point(|&c| c < u)
                    .min(self.questions.len() - 1);
                let pool = &self.questions[intent];
                let (text, truths) = &pool[self.rng.random_range(0..pool.len())];
                Turn {
                    tenant,
                    request: Request::ChatAndRun(Prompt::text(text.clone())),
                    truths: truths.clone(),
                }
            }
            Workload::EditDurable => {
                // Writes and reads alternate; tenants are staggered so every
                // round carries four of each. Detection runs only while the
                // cities carry their schema label.
                let chain = match (round + tenant) % 8 {
                    0 => ApiChain::from_names(["detect_missing_edges", "add_edges"]),
                    1 | 5 => ApiChain::from_names(["kg_statistics"]),
                    2 => relabel("City", "Town"),
                    3 | 7 => ApiChain::from_names(["validate_schema"]),
                    4 => relabel("Town", "City"),
                    _ => ApiChain::from_names(["detect_incorrect_edges", "remove_edges"]),
                };
                Turn {
                    tenant,
                    request: Request::Execute(chain),
                    truths: Vec::new(),
                }
            }
        }
    }
}

fn relabel(from: &str, to: &str) -> ApiChain {
    let mut chain = ApiChain::new();
    chain.push(
        ApiCall::new("relabel_nodes")
            .with_param("from", from)
            .with_param("to", to),
    );
    chain
}

/// A served workload: the server and its tenants, indexed like
/// [`Turn::tenant`].
pub struct Served {
    pub server: SessionServer,
    pub tenants: Vec<TenantId>,
}

/// Builds the server for one workload: bootstrap (finetune), open the
/// tenants, upload resident graphs, attach databases and create stores
/// under `store_dir`. Everything this does is what `setup_s` times. The
/// uploads and the database move out of `inputs`, so the benchmark keeps
/// no copy of them beside the server's.
pub fn set_up(inputs: &mut Inputs, store_dir: &Path) -> Result<Served, String> {
    let (core, _) = SessionCore::bootstrap(ChatGraphConfig::default(), FINETUNE_CORPUS)
        .map_err(|e| format!("bootstrap failed: {e}"))?;
    let durable = inputs.workload == Workload::EditDurable;
    let serve = ServeConfig {
        pool_workers: POOL_WORKERS,
        store_dir: if durable {
            store_dir.to_string_lossy().into_owned()
        } else {
            String::new()
        },
        ..ServeConfig::default()
    };
    let server = SessionServer::from_core(core, serve).map_err(|e| e.to_string())?;
    let database = Arc::new(std::mem::take(&mut inputs.database));
    let mut uploads: Vec<Option<Graph>> = std::mem::take(&mut inputs.uploads)
        .into_iter()
        .map(Some)
        .collect();
    // The editor opens first, so the drain pool claims its write first.
    let order: Vec<usize> = if inputs.workload == Workload::ChatResident {
        std::iter::once(EDITOR).chain(0..TENANTS).collect()
    } else {
        (0..TENANTS).collect()
    };
    let mut tenants = vec![None; order.len()];
    for t in order {
        let id = server.open_session().map_err(|e| e.to_string())?;
        let upload = uploads.get_mut(t).and_then(Option::take);
        let chat = t != EDITOR && !database.is_empty();
        server
            .with_session(id, |s| {
                if let Some(g) = upload {
                    s.set_graph(g);
                }
                if chat {
                    s.database = Arc::clone(&database);
                }
            })
            .map_err(|e| e.to_string())?;
        tenants[t] = Some(id);
    }
    let tenants = tenants
        .into_iter()
        .collect::<Option<Vec<TenantId>>>()
        .ok_or("a tenant index was never opened")?;
    Ok(Served { server, tenants })
}
