//! Protocol 1: the private weighting protocol.
//!
//! The enhanced weighting strategy `w_{s,u} = n_{s,u} / N_u` needs the cross-silo user
//! totals `N_u`, which no single party may learn. Protocol 1 combines three primitives so
//! that the weighted aggregation is computed without revealing any `n_{s,u}` (Theorem 5):
//!
//! 1. **Multiplicative blinding** — silos share a random seed `R` (unknown to the server)
//!    and blind their histograms as `B(n_{s,u}) = r_u · n_{s,u} mod n`; the server can sum
//!    and invert blinded totals but learns nothing about the underlying counts.
//! 2. **Secure aggregation** — pairwise additive masks derived from Diffie–Hellman shared
//!    seeds hide the individual blinded histograms (and later the per-silo encrypted model
//!    deltas) so the server only ever sees sums.
//! 3. **Paillier encryption** — the server returns `Enc_p(B_inv(N_u))` to the silos, which
//!    then compute the weighted, clipped model deltas *under encryption*
//!    (scalar-multiplying by `Encode(Δ̃) · n_{s,u} · r_u · C_LCM`), cancelling the blinding
//!    factor homomorphically; the server decrypts only the aggregate.
//!
//! The fixed-point `Encode`/`Decode` of Algorithm 5 and the `C_LCM` factor make the
//! per-user division by `N_u` exact on the finite field (Theorem 4).
//!
//! The implementation mirrors the message flow of the paper's Protocol 1 within a single
//! process and records wall-clock timings for each phase, which the benchmark harness uses
//! to regenerate Figures 10 and 11.
//!
//! ## Parallel execution
//!
//! The per-(silo, user) Paillier work — server-side encryption of the blinded inverses
//! (step 2.a), silo-side weighted `scalar_mul` of the clipped deltas (2.b) and the
//! homomorphic aggregation plus decryption (2.c) — runs on the deterministic
//! [`uldp_runtime::Runtime`] worker pool. Steps 2.(b)–(c) stream through one chunked
//! fold over the `(silo, coordinate)` cells in coordinate-major order
//! ([`uldp_runtime::Runtime::par_fold_reduce`]): each chunk folds its cells straight
//! into per-coordinate ciphertext totals, so no per-cell ciphertext collection is ever
//! materialised — O(dim + chunks) transient ciphertexts instead of O(silos × dim) —
//! and only the per-coordinate totals reach the decryption pass. All encryption
//! randomness is derived per user index from a single 256-bit seed drawn from the
//! caller's RNG, and ciphertext accumulation is exact modular arithmetic, so every
//! ciphertext and the decrypted aggregate are bitwise-identical at any thread count and
//! chunk size (`ProtocolConfig::threads` / `ULDP_THREADS`,
//! `ProtocolConfig::chunk_size` / `ULDP_CHUNK`); `RoundTimings` still reports each
//! phase's wall-clock separately (timings, being wall-clock, naturally vary).
//!
//! All exponentiations run on the Montgomery engine of `uldp-bigint` through contexts
//! cached in the Paillier keys (built once at setup, shared by every round): step 2.(a)
//! encrypts over the cached `n²` context, step 2.(b) hoists one fixed-base context per
//! encrypted inverse out of the (silo, coordinate) cell loop, and step 2.(c) decrypts by
//! CRT over cached `p²`/`q²` contexts. `ULDP_GENERIC_MODPOW=1` forces the schoolbook
//! square-and-multiply path instead; both paths produce bit-identical ciphertexts and
//! aggregates (CI diffs them). Bases too lightly used for a fixed-base table fuse their
//! cell terms into one interleaved multi-exponentiation (`ModulusCtx::multi_exp`).
//!
//! ## No state across rounds
//!
//! Every round freshly encrypts its blinded inverses; nothing but the setup survives
//! from one round to the next. An earlier revision cached the round-1 ciphertexts and
//! re-randomised them (`c · h^t`) in later rounds. That made each later cell term cost
//! two exponentiations (a base-table power plus an `h^(t·k)` power with a
//! `2·|n| + 64`-bit exponent), which was more than re-encrypting and rebuilding the
//! tables: on a 6-silo, 20-user, 1024-bit federation (`perfbench` `secure_dense`, 2
//! threads on a 2-vCPU VM) a round took 2.1–3.2 s fresh against 4.5–5.8 s cached, at
//! a lower peak RSS. Without cross-round state a round's output depends only on its
//! input and the caller's RNG, so any round can be replayed alone and the pipeline
//! never has to drain.
//!
//! ## Population scaling
//!
//! Round cost tracks the *sampled* users, not the population. A round's user-level
//! Poisson sample arrives as a [`SampleMask`] — dense flags or sorted sampled indices
//! ([`crate::sampling`]). With a sparse mask, step 2.(a) encrypts only the sampled
//! users' inverses and the step 2.(b) cell fold walks per-silo participant lists built
//! from the round's active users instead of scanning `0..|U|` per cell — so unsampled
//! users cost no ciphertext, no fixed-base table and no fold work. Omitting an unsampled
//! user's `Enc(0)` term subtracts exactly zero from every decrypted total, so sparse
//! and dense masks produce bitwise-identical aggregates at every `(threads, shards,
//! chunk)` point; `ULDP_DENSE_MASK=1` forces the dense representation everywhere so CI
//! can diff the two paths process against process.

use crate::config::WeightingStrategy;
use crate::sampling::SampleMask;
use crate::scenario::FaultPlan;
use crate::weighting::WeightMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use uldp_bigint::modular::{mod_inv, mod_mul, mod_pow};
use uldp_bigint::montgomery::{engine_disabled, FixedBaseCtx};
use uldp_bigint::BigUint;
use uldp_crypto::dh::{DhGroup, DhKeyPair};
use uldp_crypto::masking::MaskSeed;
use uldp_crypto::oblivious_transfer::OneOutOfP;
use uldp_crypto::paillier::{Ciphertext, PaillierKeyPair, PaillierPublicKey};
use uldp_crypto::{FixedPointCodec, MultiplicativeBlinder};
use uldp_runtime::{seeding, CloseOnDrop, Handoff, Runtime};
use uldp_telemetry::{metrics, trace};

/// Cryptographic parameters of the protocol.
#[derive(Clone, Debug)]
pub struct ProtocolConfig {
    /// Paillier modulus size in bits (the paper's default security level is 3072; tests
    /// and quick demos use smaller moduli).
    pub paillier_bits: usize,
    /// Size of the custom Diffie–Hellman safe-prime group used for the silo key exchange.
    /// Ignored when [`ProtocolConfig::use_rfc_group`] is set.
    pub dh_bits: usize,
    /// Use the RFC 3526 2048-bit MODP group instead of generating a custom group.
    pub use_rfc_group: bool,
    /// Fixed-point precision parameter `P` of Algorithm 5.
    pub precision: f64,
    /// Upper bound `N_max` on the number of records a user may hold across silos;
    /// `C_LCM = lcm(1..=N_max)`.
    pub n_max: u64,
    /// Worker threads for the protocol's parallel phases: `0` uses the process-wide
    /// runtime (`ULDP_THREADS` / available parallelism), `1` forces sequential execution,
    /// any other value builds a dedicated pool. Results are bitwise-identical regardless.
    pub threads: usize,
    /// Fold chunk size (cells per chunk) for the streaming `(silo, coordinate)` cell
    /// fold of step 2.(b)–(c): `0` reads `ULDP_CHUNK`, falling back to a small default.
    /// Ciphertext accumulation is exact modular arithmetic, so results are
    /// bitwise-identical at any setting.
    pub chunk_size: usize,
    /// Deterministic fault injection for the protocol's rounds ([`crate::scenario`]):
    /// silos dropping or straggling between steps 2.(b) and 2.(c). Only honoured by
    /// rounds whose [`RoundInput::faulted`] is set; other rounds ignore it. The default
    /// plan injects nothing.
    pub fault_plan: FaultPlan,
    /// Depth of the multi-round pipeline driven by
    /// [`PrivateWeightingProtocol::run_rounds`]: how many rounds the fold stage
    /// (steps 2.a–2.b) may run ahead of the decrypt stage (step 2.c). `0` reads
    /// `ULDP_PIPELINE_DEPTH` (default 2, classic double buffering); the `ULDP_PIPELINE`
    /// kill-switch forces the sequential path regardless. The pipeline reorders *when*
    /// work happens, never what it computes — aggregates are bitwise-identical at any
    /// depth.
    pub pipeline_depth: usize,
}

/// Default cells-per-chunk of the protocol's streaming fold when neither
/// [`ProtocolConfig::chunk_size`] nor `ULDP_CHUNK` is set. Each cell already amortises
/// one Paillier exponentiation per participating user, so fine chunks cost little and
/// keep the pool balanced even for small `silos × dim` grids.
const DEFAULT_PROTOCOL_CHUNK: usize = 4;

/// Mirror of the crypto crate's fixed-base threshold (`FIXED_BASE_MIN_MULS`): below this
/// many expected exponentiations of one base a table never amortises, and the cell
/// terms are gathered into one interleaved multi-exponentiation instead.
const FIXED_BASE_TABLE_MIN_MULS: usize = 8;

/// How step 2.(b) evaluates `inverse^scalar` for one participating user this round.
enum InverseEval<'a> {
    /// Schoolbook square-and-multiply (the `ULDP_GENERIC_MODPOW=1` path).
    Generic(&'a BigUint),
    /// Too few uses for a table: the cell's terms are gathered and fused into one
    /// interleaved (Shamir-trick) multi-exponentiation over the cached `n²` context —
    /// the shared squaring ladder replaces one ladder per term.
    Fused(&'a BigUint),
    /// Fixed-base table over the distributed ciphertext.
    Table(FixedBaseCtx),
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            paillier_bits: 512,
            dh_bits: 256,
            use_rfc_group: false,
            precision: 1e-10,
            n_max: 64,
            threads: 0,
            chunk_size: 0,
            fault_plan: FaultPlan::none(),
            pipeline_depth: 0,
        }
    }
}

impl ProtocolConfig {
    /// The paper's full-strength parameters (3072-bit security, `N_max = 2000`).
    ///
    /// Key generation and per-round encryption at this size are expensive; benchmarks
    /// report the key size they actually ran with.
    pub fn paper_scale() -> Self {
        ProtocolConfig {
            paillier_bits: 3072,
            dh_bits: 0,
            use_rfc_group: true,
            precision: 1e-10,
            n_max: 2000,
            threads: 0,
            chunk_size: 0,
            fault_plan: FaultPlan::none(),
            pipeline_depth: 0,
        }
    }
}

/// Wall-clock timings of the one-off setup phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtocolTimings {
    /// Paillier + Diffie–Hellman key generation and pairwise seed agreement (steps a–c).
    pub key_exchange: Duration,
    /// Blinded-histogram construction, masking and aggregation (steps d–e).
    pub histogram_blinding: Duration,
    /// Modular inversion of the blinded totals on the server (step f).
    pub inverse_computation: Duration,
}

impl ProtocolTimings {
    /// Total setup time.
    pub fn total(&self) -> Duration {
        self.key_exchange + self.histogram_blinding + self.inverse_computation
    }
}

/// Wall-clock timings of one weighting round (steps 2.a–2.c).
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundTimings {
    /// Server-side Poisson sampling and Paillier encryption of the blinded inverses (2.a).
    pub server_encryption: Duration,
    /// Silo-side weighted encryption of clipped deltas and noise (2.b) plus the fused
    /// homomorphic cross-silo summation, streamed over all silos.
    pub silo_weighting: Duration,
    /// Server-side decryption and decoding (2.c). (The homomorphic aggregation itself is
    /// fused into the streaming silo-weighting fold.)
    pub aggregation: Duration,
}

impl RoundTimings {
    /// Total round time.
    pub fn total(&self) -> Duration {
        self.server_encryption + self.silo_weighting + self.aggregation
    }
}

/// One round's inputs for [`PrivateWeightingProtocol::run_rounds`], bundled so a replay
/// can be described up front and driven through the pipeline.
pub struct RoundInput<'a> {
    /// `clipped_deltas[s][u]` — silo `s`'s clipped model delta `Δ̃_{s,u}` for user `u`,
    /// *before* weighting (empty when the user has no records in the silo).
    pub clipped_deltas: &'a [Vec<Vec<f64>>],
    /// `noises[s]` — the Gaussian noise vector `z_s` silo `s` adds.
    pub noises: &'a [Vec<f64>],
    /// Optional user-level sub-sampling mask. Under a dense mask, unsampled users'
    /// inverses are encrypted as zero (step 2.a), so their deltas drop out exactly;
    /// under a sparse mask they are skipped outright — no ciphertext, no fold work —
    /// which yields the same aggregate bit for bit (an `Enc(0)` term adds exactly zero
    /// to every decrypted total).
    pub sampled: Option<&'a SampleMask>,
    /// `Some(round)` runs the round under the configured [`ProtocolConfig::fault_plan`],
    /// drawing round `round`'s fault set; `None` ignores the plan entirely.
    ///
    /// Silos the plan drops leave **between steps 2.(b) and 2.(c)** — after the server
    /// ships the encrypted inverses, before the silo reports aggregate. Their cells
    /// (deltas *and* noise) are excluded from the homomorphic fold — the pairwise masks
    /// cancel inside each per-coordinate sum over the silos that did contribute, so no
    /// mask recovery is needed — and the decrypted aggregate is re-weighted by
    /// `|S| / |S_surviving|`. Straggling silos add [`FaultPlan::delay_ms`] each to the
    /// round's `silo_weighting` timing without touching the result.
    pub faulted: Option<u64>,
}

impl<'a> RoundInput<'a> {
    /// A plain, fault-free, unsampled round.
    pub fn new(clipped_deltas: &'a [Vec<Vec<f64>>], noises: &'a [Vec<f64>]) -> Self {
        RoundInput { clipped_deltas, noises, sampled: None, faulted: None }
    }
}

/// One round's outputs from [`PrivateWeightingProtocol::run_rounds`], bit for bit the
/// same at every pipeline depth.
pub struct RoundOutput {
    /// The decoded aggregate `Σ_s (Σ_u w_{s,u} Δ̃_{s,u} + z_s)` (re-weighted by
    /// `|S| / |S_surviving|` on faulted rounds).
    pub aggregate: Vec<f64>,
    /// Dropout mask in silo order (faulted rounds only).
    pub dropped: Option<Vec<bool>>,
    /// Per-phase wall-clocks. Under overlap the phases of different rounds run
    /// concurrently, so summed phase times can exceed the replay's wall-clock.
    pub timings: RoundTimings,
}

/// What [`PrivateWeightingProtocol::stage_round`] hands
/// [`PrivateWeightingProtocol::finish_round`]: the folded per-coordinate totals plus
/// everything needed to finish the round without touching shared state.
struct StagedRound {
    totals: Vec<Ciphertext>,
    server_encryption: Duration,
    silo_weighting: Duration,
    dropped: Option<Vec<bool>>,
}

/// Private user-level sub-sampling via 1-out-of-P oblivious transfer (Section 4.1).
///
/// The participation probability is `numerator / denominator`: the server prepares
/// `numerator` copies of the real encrypted inverse and `denominator − numerator`
/// encryptions of zero, and one is fetched obliviously. Only rational probabilities can be
/// expressed this way — the discretisation limitation the paper notes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObliviousSubsampling {
    /// Number of "real" slots.
    pub numerator: u64,
    /// Total number of slots `P`.
    pub denominator: u64,
}

impl ObliviousSubsampling {
    /// Creates a sub-sampling description with participation probability
    /// `numerator / denominator`.
    pub fn new(numerator: u64, denominator: u64) -> Self {
        assert!(denominator >= 1, "denominator must be at least 1");
        assert!(numerator <= denominator, "numerator must not exceed denominator");
        ObliviousSubsampling { numerator, denominator }
    }

    /// The effective user-level participation probability `q = numerator / denominator`.
    pub fn probability(&self) -> f64 {
        self.numerator as f64 / self.denominator as f64
    }

    /// Builds the OT offer for one user: `numerator` re-randomised copies of the real
    /// ciphertext followed by `denominator − numerator` fresh encryptions of zero.
    ///
    /// Every slot is a fresh Paillier encryption, so the receiver cannot tell real from
    /// dummy slots.
    pub fn build_offer<R: Rng + ?Sized>(
        &self,
        public_key: &PaillierPublicKey,
        real: &Ciphertext,
        rng: &mut R,
    ) -> OneOutOfP<Ciphertext> {
        let mut items = Vec::with_capacity(self.denominator as usize);
        for _ in 0..self.numerator {
            // Homomorphic re-randomisation: multiplying by a fresh `r^n` is *exactly*
            // the historical `add(real, encrypt(rng, 0))` — `Enc(0; r) = (1 + 0·n)·r^n
            // = r^n` — with the same single `sample_unit` draw from `rng`, so the
            // offer's ciphertext bits are unchanged; it just skips the redundant
            // `(1 + m·n)` blinding step and one multiplication.
            items.push(public_key.rerandomise(rng, real));
        }
        for _ in self.numerator..self.denominator {
            items.push(public_key.encrypt(rng, &BigUint::zero()));
        }
        OneOutOfP::new(items)
    }
}

/// The state of a completed setup phase, able to run any number of weighting rounds.
pub struct PrivateWeightingProtocol {
    num_silos: usize,
    num_users: usize,
    paillier: PaillierKeyPair,
    codec: FixedPointCodec,
    c_lcm: BigUint,
    /// The silos' shared blinding-factor expander (seeded by `R`, never sent to the server).
    blinder: MultiplicativeBlinder,
    /// Per-silo record histograms `n_{s,u}` (silo-private in the real deployment).
    silo_histograms: Vec<Vec<u64>>,
    /// Cross-silo totals `N_u` (kept only to validate inputs; not revealed by the protocol).
    user_totals: Vec<u64>,
    /// Server-side blinded inverses `B_inv(N_u)`; `None` for users with no records.
    blinded_inverses: Vec<Option<BigUint>>,
    /// Pairwise secure-aggregation seeds (symmetric).
    pair_seeds: Vec<Vec<MaskSeed>>,
    setup_timings: ProtocolTimings,
    /// Worker pool for the parallel phases (shared, or dedicated per
    /// [`ProtocolConfig::threads`]).
    runtime: Arc<Runtime>,
    /// Resolved cells-per-chunk of the streaming cell fold
    /// ([`ProtocolConfig::chunk_size`] / `ULDP_CHUNK` / default).
    chunk_size: usize,
    /// Fault plan for rounds whose [`RoundInput::faulted`] is set.
    fault_plan: FaultPlan,
    /// Resolved multi-round pipeline depth ([`ProtocolConfig::pipeline_depth`] /
    /// `ULDP_PIPELINE_DEPTH` / `ULDP_PIPELINE`); `0` means sequential.
    pipeline_depth: usize,
}

impl PrivateWeightingProtocol {
    /// Runs the setup phase (Protocol 1, step 1) for the given per-silo histograms.
    ///
    /// `histogram[s][u]` is the number of records user `u` holds in silo `s`. Every user
    /// total must be at most `config.n_max` for the `C_LCM` divisibility argument of
    /// Theorem 4 to hold.
    pub fn setup<R: Rng + ?Sized>(
        histogram: &[Vec<usize>],
        config: &ProtocolConfig,
        rng: &mut R,
    ) -> Self {
        let num_silos = histogram.len();
        assert!(num_silos >= 2, "the protocol needs at least two silos");
        let num_users = histogram[0].len();
        assert!(num_users >= 1, "the protocol needs at least one user");
        assert!(histogram.iter().all(|row| row.len() == num_users));
        config.fault_plan.validate();
        let runtime = Runtime::handle(config.threads);

        // --- Step 1.(a)-(c): key generation and pairwise seed agreement. ---
        let key_span = trace::timed_span("protocol", "key_exchange");
        let paillier = PaillierKeyPair::generate(rng, config.paillier_bits);
        // Warm the ciphertext-modulus Montgomery context during setup so every round
        // (steps 2.(a)-(c)) shares the cached engine state and no phase ever pays for
        // context construction mid-round.
        let _ = paillier.public.ctx_n2();
        let dh_group = if config.use_rfc_group {
            DhGroup::rfc3526_2048()
        } else {
            DhGroup::generate(rng, config.dh_bits.max(64))
        };
        let keypairs: Vec<DhKeyPair> =
            (0..num_silos).map(|_| DhKeyPair::generate(rng, &dh_group)).collect();
        let mut pair_seeds = vec![vec![MaskSeed::new([0u8; 32]); num_silos]; num_silos];
        for i in 0..num_silos {
            for j in 0..num_silos {
                if i != j {
                    pair_seeds[i][j] =
                        MaskSeed::new(keypairs[i].shared_seed(keypairs[j].public_key()));
                }
            }
        }
        // Silo 0 picks the shared random seed R and distributes it over the pairwise
        // channels; the server never sees it.
        let mut blind_seed = [0u8; 32];
        rng.fill(&mut blind_seed);
        let key_exchange = key_span.finish();

        let modulus = paillier.public.n.clone();
        let codec = FixedPointCodec::new(config.precision, modulus.clone());
        let c_lcm = uldp_bigint::lcm_up_to(config.n_max);
        let blinder = MultiplicativeBlinder::new(blind_seed, modulus.clone());

        // --- Step 1.(d)-(e): blinded, masked histogram aggregation. ---
        let hist_span = trace::timed_span("protocol", "histogram_blinding");
        let silo_histograms: Vec<Vec<u64>> =
            histogram.iter().map(|row| row.iter().map(|&c| c as u64).collect()).collect();
        let mut user_totals = vec![0u64; num_users];
        for row in &silo_histograms {
            for (t, &c) in user_totals.iter_mut().zip(row.iter()) {
                *t += c;
            }
        }
        for (&total, _) in user_totals.iter().zip(0..num_users) {
            assert!(
                total <= config.n_max,
                "user total {total} exceeds N_max = {} (required by Theorem 4)",
                config.n_max
            );
        }
        // Each silo blinds and masks its histogram; the server sums the masked values.
        // The pairwise masks cancel in the sum, so we compute the aggregate directly while
        // still exercising the blinding (what the server actually sees is r_u * N_u).
        // Blinding-factor expansion is SHA-256-based and per-user independent, so the
        // per-user columns run on the worker pool.
        let blinded_totals: Vec<BigUint> = runtime.par_map_range(num_users, |u| {
            let mut total = BigUint::zero();
            for row in &silo_histograms {
                let blinded = blinder.blind(u as u64, &BigUint::from_u64(row[u]));
                total = uldp_bigint::modular::mod_add(&total, &blinded, &modulus);
            }
            total
        });
        let histogram_blinding = hist_span.finish();

        // --- Step 1.(f): server inverts the blinded totals (one mod_inv per user). ---
        let inv_span = trace::timed_span("protocol", "inverse_computation");
        let blinded_inverses: Vec<Option<BigUint>> =
            runtime.par_map(
                &blinded_totals,
                |_, b| if b.is_zero() { None } else { mod_inv(b, &modulus) },
            );
        let inverse_computation = inv_span.finish();

        PrivateWeightingProtocol {
            num_silos,
            num_users,
            paillier,
            codec,
            c_lcm,
            blinder,
            silo_histograms,
            user_totals,
            blinded_inverses,
            pair_seeds,
            setup_timings: ProtocolTimings {
                key_exchange,
                histogram_blinding,
                inverse_computation,
            },
            runtime,
            chunk_size: uldp_runtime::resolve_chunk_size(config.chunk_size, DEFAULT_PROTOCOL_CHUNK),
            fault_plan: config.fault_plan,
            pipeline_depth: uldp_runtime::resolve_pipeline_depth(config.pipeline_depth),
        }
    }

    /// Replaces the worker pool this protocol instance runs on (e.g. to compare a
    /// sequential and a parallel execution of the same setup).
    pub fn with_runtime(mut self, runtime: Arc<Runtime>) -> Self {
        self.runtime = runtime;
        self
    }

    /// The worker pool in use.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Number of silos.
    pub fn num_silos(&self) -> usize {
        self.num_silos
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Bit length of the Paillier modulus actually in use.
    pub fn modulus_bits(&self) -> usize {
        self.paillier.public.modulus_bits()
    }

    /// Timings of the setup phase.
    pub fn setup_timings(&self) -> &ProtocolTimings {
        &self.setup_timings
    }

    /// The pairwise secure-aggregation seeds established during setup.
    pub fn pair_seeds(&self) -> &[Vec<MaskSeed>] {
        &self.pair_seeds
    }

    /// The record-proportional weight matrix the protocol implicitly computes
    /// (`w_{s,u} = n_{s,u} / N_u`), exposed for validation against the plaintext path.
    pub fn reference_weights(&self) -> WeightMatrix {
        let histogram: Vec<Vec<usize>> = self
            .silo_histograms
            .iter()
            .map(|row| row.iter().map(|&c| c as usize).collect())
            .collect();
        WeightMatrix::from_histogram(WeightingStrategy::RecordProportional, &histogram)
    }

    /// Always 0: rounds keep no per-user crypto state between them. Kept only because
    /// the `perfbench/` harness reports it as `protocol.cache.state_bytes`.
    pub fn cached_state_bytes(&self) -> usize {
        0
    }

    /// Does nothing: rounds keep no state between them, so there is nothing to reset.
    /// Kept only because the `perfbench/` harness calls it between timed regions.
    pub fn reset_round_cache(&self) {}

    /// The round's *active* users — the users whose encrypted inverses are actually
    /// distributed to the silos — as an ascending id list.
    ///
    /// With no mask or a dense mask this is every user: unsampled users receive
    /// `Enc(0)`, the legacy path, bitwise identical to earlier revisions. A sparse mask
    /// keeps only sampled users that hold records — omitting a user's `Enc(0)` term
    /// subtracts exactly zero from every decrypted total, so the aggregate keeps
    /// identical bits while step 2.(a)–(b) cost drops to `O(q·|U|)` crypto operations.
    fn active_users(&self, sampled: Option<&SampleMask>) -> Vec<u32> {
        match sampled {
            Some(mask) if mask.is_sparse() => mask
                .iter()
                .filter(|&u| self.blinded_inverses[u].is_some())
                .map(|u| u as u32)
                .collect(),
            _ => (0..self.num_users as u32).collect(),
        }
    }

    /// Step 2.(a): freshly encrypts the blinded inverses of one round's active users.
    /// Returns the active user ids with their ciphertexts aligned position for position.
    ///
    /// Exactly one 256-bit batch seed is drawn from the caller's RNG, so sparse and
    /// dense masks consume identical caller randomness streams. Per-user randomness is
    /// seeded from `(seed, user id)` — not the active position — so a sparse round
    /// derives exactly the per-user streams the dense walk would, and the output is
    /// bitwise-identical at any thread count.
    fn distribute_inverses<R: Rng + ?Sized>(
        &self,
        sampled: Option<&SampleMask>,
        rng: &mut R,
    ) -> (Vec<u32>, Vec<Ciphertext>) {
        let batch_seed = seeding::wide_seed_from_rng(rng);
        let active = self.active_users(sampled);
        let cts = self.runtime.par_map(&active, |_, &u| {
            let u = u as usize;
            let keep = sampled.is_none_or(|m| m.contains(u));
            let plaintext = match &self.blinded_inverses[u] {
                Some(inverse) if keep => inverse.clone(),
                _ => BigUint::zero(),
            };
            let mut rng = StdRng::from_seed(seeding::index_seed_wide(batch_seed, u as u64));
            self.paillier.public.encrypt(&mut rng, &plaintext)
        });
        (active, cts)
    }

    /// Runs a multi-round replay (Protocol 1, step 2, once per input) through the round
    /// pipeline at the protocol's resolved depth ([`ProtocolConfig::pipeline_depth`] /
    /// `ULDP_PIPELINE_DEPTH`, with the `ULDP_PIPELINE` kill-switch forcing depth 0).
    ///
    /// Each output is the decoded aggregate `Σ_s (Σ_u w_{s,u} Δ̃_{s,u} + z_s)` of its
    /// input (see [`RoundInput`] for sampling and fault semantics) plus per-phase
    /// timings. Rounds share no state, so every output equals the same round run alone
    /// from the same caller-RNG state.
    pub fn run_rounds<R: Rng + ?Sized>(
        &self,
        rounds: &[RoundInput<'_>],
        rng: &mut R,
    ) -> Vec<RoundOutput> {
        self.run_rounds_with_depth(rounds, self.pipeline_depth, rng)
    }

    /// [`PrivateWeightingProtocol::run_rounds`] at an explicit pipeline depth:
    /// `0` runs the rounds one after another, `d ≥ 1` lets the fold stage run up to
    /// `d` rounds ahead of the decrypt stage. Exposed so tests and benches can compare
    /// depths without touching the process environment.
    ///
    /// While the server decrypts round `t`'s per-coordinate totals (step 2.c), the pool
    /// is already encrypting and folding round `t+1` (steps 2.a–b). The stages commute
    /// because they touch disjoint state: the fold writes only ciphertext totals derived
    /// from the public key, the decrypt reads only already-folded totals with the secret
    /// key. Every caller-RNG draw happens on the submitting thread in round order (one
    /// 256-bit seed per round), so the outputs are bitwise-identical at every
    /// `(threads × shards × chunk × depth)` point, dropouts included.
    pub fn run_rounds_with_depth<R: Rng + ?Sized>(
        &self,
        rounds: &[RoundInput<'_>],
        depth: usize,
        rng: &mut R,
    ) -> Vec<RoundOutput> {
        if depth == 0 || rounds.len() < 2 {
            return rounds
                .iter()
                .map(|input| {
                    let staged = self.stage_round(input, rng);
                    self.finish_round(staged)
                })
                .collect();
        }
        // `jobs` carries folded totals forward; its capacity is the pipeline depth (the
        // double buffer) and it delivers strictly in round order.
        let jobs: Handoff<StagedRound> = Handoff::new(depth);
        std::thread::scope(|scope| {
            let jobs = &jobs;
            let decrypt_stage = scope.spawn(move || {
                // A panic mid-decrypt must close the queue, or the producer would block
                // forever against a full `jobs` queue.
                let _close_jobs = CloseOnDrop(jobs);
                let mut outputs = Vec::with_capacity(rounds.len());
                while let Some((_, staged)) = jobs.pop() {
                    outputs.push(self.finish_round(staged));
                    metrics::PIPELINE_INFLIGHT.sub(1);
                }
                outputs
            });
            {
                // Likewise a panic while staging must release the decrypt stage.
                let _close_jobs = CloseOnDrop(jobs);
                for (t, input) in rounds.iter().enumerate() {
                    let staged = self.stage_round(input, rng);
                    metrics::PIPELINE_INFLIGHT.add(1);
                    // The producer parks here while all `depth` slots are in flight —
                    // the span makes backpressure visible in traces.
                    let _wait = trace::span("protocol", "pipeline_wait").arg("round", t);
                    if !jobs.push(t as u64, staged) {
                        break; // the decrypt stage died; joining re-raises its panic
                    }
                }
            }
            let _wait = trace::span("protocol", "pipeline_wait")
                .arg("final_drain", depth.min(rounds.len()));
            decrypt_stage.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    /// The first half of one round: step 2.(a) (the round's only caller-RNG draw), the
    /// fault plan's draw with its dropout and delay events, and the streaming cell fold
    /// of step 2.(b).
    fn stage_round<R: Rng + ?Sized>(&self, input: &RoundInput<'_>, rng: &mut R) -> StagedRound {
        let dim = self.check_round_shape(input.clipped_deltas, input.noises);
        // The server encrypts the (possibly sub-sampled) blinded inverses before any
        // silo can drop.
        let enc_span = trace::timed_span("protocol", "server_encryption");
        let (active, encrypted_inverses) = self.distribute_inverses(input.sampled, rng);
        let server_encryption = enc_span.finish();

        let mut delay = Duration::ZERO;
        let dropped = input.faulted.map(|round| {
            let dropped = self.fault_plan.dropped_silos(round, self.num_silos);
            let delayed = self.fault_plan.delayed_silos(round, self.num_silos);
            if uldp_telemetry::enabled() {
                // Structured fault events: one per affected silo, tagged with the round
                // so traces of multi-round runs stay attributable.
                for silo in (0..self.num_silos).filter(|&s| dropped[s]) {
                    metrics::FAULT_EVENTS.inc();
                    trace::event(
                        "fault",
                        "dropout",
                        vec![("round", round.into()), ("silo", silo.into())],
                    );
                }
                for silo in (0..self.num_silos).filter(|&s| delayed[s]) {
                    metrics::FAULT_EVENTS.inc();
                    trace::event(
                        "fault",
                        "delay",
                        vec![
                            ("round", round.into()),
                            ("silo", silo.into()),
                            ("delay_ms", self.fault_plan.delay_ms.into()),
                        ],
                    );
                }
            }
            // Stragglers: each delayed report lands `delay_ms` late. Simulated in the
            // timings only — no wall-clock sleep, the aggregate is untouched.
            let delayed_count = delayed.iter().filter(|&&d| d).count() as u64;
            delay = Duration::from_millis(self.fault_plan.delay_ms * delayed_count);
            dropped
        });
        let (totals, silo_weighting) = self.fold_round_totals(
            input.clipped_deltas,
            input.noises,
            &active,
            &encrypted_inverses,
            dim,
            dropped.as_deref(),
        );
        StagedRound { totals, server_encryption, silo_weighting: silo_weighting + delay, dropped }
    }

    /// The second half of one round: step 2.(c) and, after dropouts, the surviving-silo
    /// re-weighting — the decrypted value is the exact sum over the survivors, scaled by
    /// `|S| / |S_surviving|` so the server update keeps its |S|-silo magnitude.
    fn finish_round(&self, staged: StagedRound) -> RoundOutput {
        let (mut aggregate, aggregation) = self.decrypt_totals(&staged.totals);
        if let Some(dropped) = &staged.dropped {
            let surviving = dropped.iter().filter(|&&d| !d).count();
            debug_assert!(surviving >= 1, "the fault plan must leave at least one silo");
            let factor = self.num_silos as f64 / surviving as f64;
            if factor != 1.0 {
                for v in aggregate.iter_mut() {
                    *v *= factor;
                }
            }
        }
        RoundOutput {
            aggregate,
            dropped: staged.dropped,
            timings: RoundTimings {
                server_encryption: staged.server_encryption,
                silo_weighting: staged.silo_weighting,
                aggregation,
            },
        }
    }

    /// Runs one weighting round with **private user-level sub-sampling** via simulated
    /// 1-out-of-P oblivious transfer (the extension sketched in Section 4.1 of the paper).
    ///
    /// For every user the server prepares `sampling.denominator` ciphertexts of which
    /// `sampling.numerator` encrypt the real blinded inverse and the rest encrypt zero; a
    /// single ciphertext is obtained through OT and used for the round. The server never
    /// learns whether a user was sampled (it cannot see the OT choice) and the silos never
    /// learn it either (a dummy is indistinguishable from a real Paillier ciphertext), so
    /// the participation probability is exactly `numerator / denominator` but the outcome
    /// stays hidden — unlike a [`RoundInput::sampled`] mask, which the server chooses in
    /// the clear.
    ///
    /// Returns the decoded aggregate, the realised selection flags (**for validation and
    /// accounting tests only** — in a deployment no party may observe them), and the
    /// per-phase timings.
    pub fn weighting_round_with_oblivious_subsampling<R: Rng + ?Sized>(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampling: &ObliviousSubsampling,
        rng: &mut R,
    ) -> (Vec<f64>, Vec<bool>, RoundTimings) {
        let dim = self.check_round_shape(clipped_deltas, noises);

        // Server side: build the OT offers (step 2.a extended with dummies). Every user's
        // offer and transfer draw from an RNG derived from a 256-bit (seed, u) stream, so
        // the realised selection is identical at any thread count.
        let enc_span = trace::timed_span("protocol", "server_encryption");
        let batch_seed = seeding::wide_seed_from_rng(rng);
        let per_user: Vec<(Ciphertext, bool)> =
            self.runtime.par_map_wide_seeded(self.num_users, batch_seed, |u, rng| {
                let real = match &self.blinded_inverses[u] {
                    Some(inv) => self.paillier.public.encrypt(rng, inv),
                    None => self.paillier.public.encrypt(rng, &BigUint::zero()),
                };
                let offer = sampling.build_offer(&self.paillier.public, &real, rng);
                let (output, _sender_view) = offer.transfer_uniform(rng);
                // The receiver keeps only the ciphertext; whether it was a real slot is
                // recorded here purely so tests can validate correctness.
                let was_real = output.chosen_index < sampling.numerator as usize
                    && self.blinded_inverses[u].is_some();
                (output.item, was_real)
            });
        let (chosen, selected_flags): (Vec<Ciphertext>, Vec<bool>) = per_user.into_iter().unzip();
        let server_encryption = enc_span.finish();

        // Silo side and aggregation are identical to the plain round, using the chosen
        // ciphertexts in place of the server-published inverses. Every user gets an OT
        // offer (the whole point is hiding who was sampled), so all users are active.
        let active: Vec<u32> = (0..self.num_users as u32).collect();
        let (totals, silo_weighting) =
            self.fold_round_totals(clipped_deltas, noises, &active, &chosen, dim, None);
        let (out, aggregation) = self.decrypt_totals(&totals);
        (out, selected_flags, RoundTimings { server_encryption, silo_weighting, aggregation })
    }

    /// Checks one round's input shapes against the setup and returns the model
    /// dimension.
    fn check_round_shape(&self, clipped_deltas: &[Vec<Vec<f64>>], noises: &[Vec<f64>]) -> usize {
        assert_eq!(clipped_deltas.len(), self.num_silos, "one delta set per silo required");
        assert_eq!(noises.len(), self.num_silos, "one noise vector per silo required");
        let dim = noises[0].len();
        assert!(dim > 0, "model dimension must be positive");
        for silo in 0..self.num_silos {
            assert_eq!(clipped_deltas[silo].len(), self.num_users, "per-user deltas required");
            assert_eq!(noises[silo].len(), dim, "noise dimensionality mismatch");
            for delta in clipped_deltas[silo].iter().filter(|d| !d.is_empty()) {
                assert_eq!(delta.len(), dim, "delta dimensionality mismatch");
            }
        }
        dim
    }

    /// The fold stage of one round — steps 2.(b) and the fused homomorphic cross-silo
    /// sum — producing the per-coordinate ciphertext totals and the `silo_weighting`
    /// wall-clock. This is the stage the round pipeline overlaps with the *previous*
    /// round's [`PrivateWeightingProtocol::decrypt_totals`]: the two touch disjoint
    /// key material (public vs secret) and disjoint state, and each is deterministic
    /// in isolation, so overlap cannot change any bit of either. When `dropped` is
    /// given, the marked silos' cells (deltas and noise) are left out of the fold —
    /// their reports never reach the server.
    fn fold_round_totals(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        active: &[u32],
        encrypted_inverses: &[Ciphertext],
        dim: usize,
        dropped: Option<&[bool]>,
    ) -> (Vec<Ciphertext>, Duration) {
        let n = &self.paillier.public.n;
        let n_squared = &self.paillier.public.n_squared;
        let rt = &*self.runtime;
        debug_assert_eq!(active.len(), encrypted_inverses.len());
        let silo_span = trace::timed_span("protocol", "silo_weighting");
        // Per-silo participant lists: active users with records *and* a delta in this
        // silo, as (active position, user id) pairs. `active` is ascending, so each
        // list walks users in exactly the order the dense `0..|U|` scan did — the cell
        // totals keep identical bits — while the fold below only ever touches the
        // round's participants instead of the whole population per cell.
        let participants: Vec<Vec<(usize, usize)>> = (0..self.num_silos)
            .map(|silo| {
                active
                    .iter()
                    .enumerate()
                    .filter(|&(_, &u)| {
                        self.silo_histograms[silo][u as usize] > 0
                            && !clipped_deltas[silo][u as usize].is_empty()
                    })
                    .map(|(i, &u)| (i, u as usize))
                    .collect()
            })
            .collect();
        // The per-user scalar prefix `n_su · r_u · C_LCM mod n` is independent of the
        // coordinate, so it is computed once per (silo, active user) instead of once
        // per (silo, user, coordinate); the SHA-based blinding-factor expansion runs on
        // the pool.
        let factors: Vec<BigUint> = rt.par_map(active, |_, &u| self.blinder.factor(u as u64));
        let prefixes: Vec<Vec<BigUint>> = (0..self.num_silos)
            .map(|silo| {
                active
                    .iter()
                    .enumerate()
                    .map(|(i, &u)| {
                        let n_su = self.silo_histograms[silo][u as usize];
                        let p = mod_mul(&BigUint::from_u64(n_su), &factors[i], n);
                        mod_mul(&p, &self.c_lcm, n)
                    })
                    .collect()
            })
            .collect();
        // User u's encrypted inverse is raised to one scalar per (participating silo,
        // coordinate) cell, so one exponentiation context per user is hoisted out of the
        // cell loop: for heavily-used bases it precomputes a fixed-base table (no
        // squarings per scalar_mul), and no per-cell Montgomery context is ever rebuilt.
        let mut ctx_uses = vec![0usize; active.len()];
        for plist in &participants {
            for &(i, _) in plist {
                ctx_uses[i] += dim;
            }
        }
        // All per-user contexts are alive for the whole region, and a fixed-base table
        // costs megabytes per user at paper-scale key sizes — so the tables are only
        // requested while the aggregate footprint stays within a fixed budget; beyond
        // it, users get the table-free sliding-window context (`expected 1 use`), which
        // still shares the cached per-modulus engine state.
        const FIXED_BASE_BUDGET_BYTES: usize = 256 << 20;
        let table_bytes = FixedBaseCtx::estimated_table_bytes(
            self.paillier.public.n_squared.bit_length(),
            self.paillier.public.n.bit_length(),
        );
        let participating = ctx_uses.iter().filter(|&&uses| uses > 0).count();
        let tables_affordable =
            participating.saturating_mul(table_bytes) <= FIXED_BASE_BUDGET_BYTES;
        let generic = engine_disabled();
        let n_bits = n.bit_length();
        let evals: Vec<Option<InverseEval>> = rt.par_map_range(active.len(), |i| {
            (ctx_uses[i] > 0).then(|| {
                let base = &encrypted_inverses[i].0;
                if generic {
                    InverseEval::Generic(base)
                } else if !tables_affordable || ctx_uses[i] < FIXED_BASE_TABLE_MIN_MULS {
                    InverseEval::Fused(base)
                } else {
                    InverseEval::Table(FixedBaseCtx::new(
                        Arc::clone(self.paillier.public.ctx_n2()),
                        base,
                        n_bits,
                    ))
                }
            })
        });
        // Steps 2.(b)+(c) silo side: every (silo, coordinate) cell is independent — the
        // Paillier `scalar_mul` per user inside it is the protocol's dominant cost
        // (Figures 10–11) — and ciphertext addition is exact modular arithmetic, so the
        // cells stream through one chunked fold in coordinate-major order: each chunk
        // folds its cells straight into per-coordinate ciphertext totals (the cross-silo
        // homomorphic sum is fused into the fold), and chunk partials combine in fixed
        // cell order. No per-cell ciphertext collection is ever materialised — transient
        // memory is O(dim + chunks) ciphertexts instead of O(silos × dim) — and the
        // result is bitwise-identical at any (threads, chunk_size) setting.
        let num_cells = dim * self.num_silos;
        let chunk_size = self.chunk_size;
        let cell_ranges = uldp_runtime::fold_chunk_ranges(num_cells, chunk_size);
        let ct_bytes = self.paillier.public.n_squared.bit_length().div_ceil(64) * 8;
        let partial_entries: usize = cell_ranges
            .iter()
            .map(|r| (r.end - 1) / self.num_silos - r.start / self.num_silos + 1)
            .sum();
        rt.fold_gauge().record(partial_entries * ct_bytes);
        let compute_cell = |silo: usize, j: usize| -> Ciphertext {
            let mut acc = self.paillier.public.trivial_zero();
            // A dropped silo's report never reaches the server: neither its weighted
            // deltas nor its noise enter the per-coordinate total (the pairwise masks
            // cancel over the silos that did contribute, so no recovery is needed).
            if dropped.is_some_and(|d| d[silo]) {
                return acc;
            }
            // Table-free bases gather their `(base, scalar)` terms here and fuse into
            // one interleaved multi-exponentiation after the loop; ciphertext addition
            // is modular multiplication, which commutes, so hoisting these terms out of
            // the running product leaves the cell total bit-identical.
            let mut fused: Vec<(BigUint, BigUint)> = Vec::new();
            for &(i, u) in &participants[silo] {
                let delta = &clipped_deltas[silo][u];
                let scalar = mod_mul(&self.codec.encode(delta[j]), &prefixes[silo][i], n);
                let eval = evals[i].as_ref().expect("evaluator built for participating user");
                let term = match eval {
                    InverseEval::Generic(base) => mod_pow(base, &scalar, n_squared),
                    InverseEval::Fused(base) => {
                        fused.push(((*base).clone(), scalar));
                        continue;
                    }
                    InverseEval::Table(table) => table.pow(&scalar),
                };
                metrics::PAILLIER_SCALAR_MUL.inc();
                acc = self.paillier.public.add(&acc, &Ciphertext(term));
            }
            if !fused.is_empty() {
                metrics::PAILLIER_SCALAR_MUL.add(fused.len() as u64);
                let product = self.paillier.public.ctx_n2().multi_exp(&fused);
                acc = self.paillier.public.add(&acc, &Ciphertext(product));
            }
            let noise_scalar = mod_mul(&self.codec.encode(noises[silo][j]), &self.c_lcm, n);
            self.paillier.public.add_plain(&acc, &noise_scalar)
        };
        // Chunk partials carry (coordinate, running total) pairs; a chunk touches at
        // most ⌈chunk/|S|⌉ + 1 coordinates, and partials merge at shared boundaries.
        let fold_cell = |acc: &mut Vec<(usize, Ciphertext)>, idx: usize| {
            let j = idx / self.num_silos;
            let silo = idx % self.num_silos;
            let cell = compute_cell(silo, j);
            match acc.last_mut() {
                Some((last_j, total)) if *last_j == j => {
                    *total = self.paillier.public.add(total, &cell);
                }
                _ => acc.push((j, cell)),
            }
        };
        let merge = |mut a: Vec<(usize, Ciphertext)>, b: Vec<(usize, Ciphertext)>| {
            for (j, partial) in b {
                match a.last_mut() {
                    Some((last_j, total)) if *last_j == j => {
                        *total = self.paillier.public.add(total, &partial);
                    }
                    _ => a.push((j, partial)),
                }
            }
            a
        };
        let totals: Vec<Ciphertext> = rt
            .par_fold_reduce(num_cells, chunk_size, Vec::new, fold_cell, merge)
            .expect("at least one (silo, coordinate) cell")
            .into_iter()
            .map(|(_, total)| total)
            .collect();
        debug_assert_eq!(totals.len(), dim);
        let silo_weighting = silo_span.finish();
        (totals, silo_weighting)
    }

    /// The decrypt stage of one round — step 2.(c): batched CRT decryption of the
    /// per-coordinate totals and fixed-point decoding. (The homomorphic cross-silo sum
    /// is fused into the streaming fold.) The CRT contexts are hoisted once per batch
    /// inside [`uldp_crypto::paillier::PaillierSecretKey::decrypt_batch`], so the
    /// pipeline's
    /// overlapped decrypt pass never re-derives per-round state. The `aggregation`
    /// span covers decryption plus decoding, with one nested `decryption` span for the
    /// batch itself.
    fn decrypt_totals(&self, totals: &[Ciphertext]) -> (Vec<f64>, Duration) {
        let rt = &*self.runtime;
        let agg_span = trace::timed_span("protocol", "aggregation");
        let dec_span = trace::span("protocol", "decryption").arg("coordinates", totals.len());
        let decrypted = self.paillier.secret.decrypt_batch(rt, totals);
        drop(dec_span);
        let out: Vec<f64> = rt.par_map(&decrypted, |_, m| self.codec.decode(m, &self.c_lcm));
        (out, agg_span.finish())
    }

    /// The plaintext value the protocol is supposed to compute:
    /// `Σ_s ( Σ_u (n_{s,u} / N_u) Δ̃_{s,u} + z_s )`, honouring the sub-sampling mask.
    pub fn plaintext_reference(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampled: Option<&SampleMask>,
    ) -> Vec<f64> {
        self.reference_sum(clipped_deltas, noises, sampled, None)
    }

    /// The [`PrivateWeightingProtocol::plaintext_reference`] sum; with `dropped`, it runs
    /// over the silos not marked there and is re-weighted by `|S| / |S_surviving|` — the
    /// value a faulted round is supposed to compute.
    fn reference_sum(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampled: Option<&SampleMask>,
        dropped: Option<&[bool]>,
    ) -> Vec<f64> {
        let dim = noises[0].len();
        let mut out = vec![0.0; dim];
        for silo in 0..self.num_silos {
            if dropped.is_some_and(|d| d[silo]) {
                continue;
            }
            for (u, delta) in clipped_deltas[silo].iter().enumerate() {
                let keep = sampled.is_none_or(|s| s.contains(u));
                let n_su = self.silo_histograms[silo][u];
                if !keep || n_su == 0 || delta.is_empty() || self.user_totals[u] == 0 {
                    continue;
                }
                let w = n_su as f64 / self.user_totals[u] as f64;
                for (o, d) in out.iter_mut().zip(delta.iter()) {
                    *o += w * d;
                }
            }
            for (o, z) in out.iter_mut().zip(noises[silo].iter()) {
                *o += z;
            }
        }
        if let Some(dropped) = dropped {
            let surviving = dropped.iter().filter(|&&d| !d).count().max(1);
            let factor = self.num_silos as f64 / surviving as f64;
            if factor != 1.0 {
                for o in out.iter_mut() {
                    *o *= factor;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_histogram() -> Vec<Vec<usize>> {
        // 3 silos, 4 users
        vec![vec![2, 0, 1, 3], vec![1, 4, 0, 1], vec![0, 2, 2, 0]]
    }

    fn test_config() -> ProtocolConfig {
        ProtocolConfig { paillier_bits: 256, dh_bits: 128, n_max: 16, ..Default::default() }
    }

    fn deltas_and_noise(
        histogram: &[Vec<usize>],
        dim: usize,
        seed: u64,
    ) -> (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let deltas: Vec<Vec<Vec<f64>>> = histogram
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&c| {
                        if c == 0 {
                            Vec::new()
                        } else {
                            (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
                        }
                    })
                    .collect()
            })
            .collect();
        let noises: Vec<Vec<f64>> = histogram
            .iter()
            .map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect())
            .collect();
        (deltas, noises)
    }

    /// One round run alone through the engine.
    fn run_one(
        protocol: &PrivateWeightingProtocol,
        input: RoundInput<'_>,
        rng: &mut StdRng,
    ) -> RoundOutput {
        protocol.run_rounds(&[input], rng).pop().expect("one output per round")
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_close(secure: &[f64], reference: &[f64]) {
        for (a, b) in secure.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
        }
    }

    #[test]
    fn protocol_matches_plaintext_aggregation() {
        let mut rng = StdRng::seed_from_u64(1);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 2);
        let out = run_one(&protocol, RoundInput::new(&deltas, &noises), &mut rng);
        assert_close(&out.aggregate, &protocol.plaintext_reference(&deltas, &noises, None));
        assert!(out.timings.total() > Duration::ZERO);
        assert!(out.dropped.is_none());
    }

    #[test]
    fn subsampling_removes_unsampled_users_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 4);
        let sampled = SampleMask::from_dense(vec![true, false, true, false]);
        let input = RoundInput { sampled: Some(&sampled), ..RoundInput::new(&deltas, &noises) };
        let secure = run_one(&protocol, input, &mut rng).aggregate;
        let reference = protocol.plaintext_reference(&deltas, &noises, Some(&sampled));
        assert_close(&secure, &reference);
        // and it differs from the un-sampled aggregate
        let full_reference = protocol.plaintext_reference(&deltas, &noises, None);
        let diff: f64 =
            reference.iter().zip(full_reference.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn reference_weights_match_record_proportional_strategy() {
        let mut rng = StdRng::seed_from_u64(5);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let weights = protocol.reference_weights();
        assert!((weights.get(0, 0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((weights.get(1, 1) - 4.0 / 6.0).abs() < 1e-12);
        assert!(weights.satisfies_sensitivity_constraint(1e-9));
    }

    #[test]
    fn setup_reports_timings_and_key_size() {
        let mut rng = StdRng::seed_from_u64(6);
        let protocol =
            PrivateWeightingProtocol::setup(&small_histogram(), &test_config(), &mut rng);
        assert!(protocol.setup_timings().total() > Duration::ZERO);
        assert!(protocol.modulus_bits() >= 255);
        assert_eq!(protocol.num_silos(), 3);
        assert_eq!(protocol.num_users(), 4);
        assert_eq!(protocol.pair_seeds().len(), 3);
    }

    #[test]
    fn oblivious_subsampling_always_selected_matches_full_round() {
        // numerator == denominator: every user is selected, so the result must equal the
        // plaintext reference with no mask.
        let mut rng = StdRng::seed_from_u64(31);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 32);
        let sampling = ObliviousSubsampling::new(4, 4);
        let (secure, flags, _) = protocol
            .weighting_round_with_oblivious_subsampling(&deltas, &noises, &sampling, &mut rng);
        assert!(flags.iter().all(|&f| f));
        let reference = protocol.plaintext_reference(&deltas, &noises, None);
        for (a, b) in secure.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn oblivious_subsampling_never_selected_leaves_only_noise() {
        let mut rng = StdRng::seed_from_u64(33);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 34);
        let sampling = ObliviousSubsampling::new(0, 4);
        let (secure, flags, _) = protocol
            .weighting_round_with_oblivious_subsampling(&deltas, &noises, &sampling, &mut rng);
        assert!(flags.iter().all(|&f| !f));
        // Only the per-silo noise survives.
        let noise_only = protocol.plaintext_reference(
            &vec![vec![Vec::new(); protocol.num_users()]; protocol.num_silos()],
            &noises,
            None,
        );
        for (a, b) in secure.iter().zip(noise_only.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn oblivious_subsampling_matches_plaintext_for_realised_selection() {
        let mut rng = StdRng::seed_from_u64(35);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 36);
        let sampling = ObliviousSubsampling::new(1, 2);
        assert!((sampling.probability() - 0.5).abs() < 1e-12);
        let (secure, flags, _) = protocol
            .weighting_round_with_oblivious_subsampling(&deltas, &noises, &sampling, &mut rng);
        let mask = SampleMask::from_dense(flags);
        let reference = protocol.plaintext_reference(&deltas, &noises, Some(&mask));
        for (a, b) in secure.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn weighting_round_is_bitwise_identical_across_thread_counts() {
        let histogram = small_histogram();
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(9);
            let cfg = ProtocolConfig { threads, ..test_config() };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            let (deltas, noises) = deltas_and_noise(&histogram, 4, 42);
            bits(&run_one(&protocol, RoundInput::new(&deltas, &noises), &mut rng).aggregate)
        };
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(4));
    }

    #[test]
    fn oblivious_round_is_bitwise_identical_across_thread_counts() {
        let histogram = small_histogram();
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(13);
            let cfg = ProtocolConfig { threads, ..test_config() };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            let (deltas, noises) = deltas_and_noise(&histogram, 3, 14);
            let sampling = ObliviousSubsampling::new(1, 2);
            let (out, flags, _) = protocol
                .weighting_round_with_oblivious_subsampling(&deltas, &noises, &sampling, &mut rng);
            (bits(&out), flags)
        };
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(4));
    }

    #[test]
    #[should_panic(expected = "numerator must not exceed denominator")]
    fn oblivious_subsampling_rejects_invalid_fraction() {
        let _ = ObliviousSubsampling::new(3, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds N_max")]
    fn rejects_user_totals_above_n_max() {
        let mut rng = StdRng::seed_from_u64(7);
        let histogram = vec![vec![20usize], vec![20usize]];
        let cfg =
            ProtocolConfig { n_max: 8, paillier_bits: 128, dh_bits: 64, ..Default::default() };
        let _ = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least two silos")]
    fn rejects_single_silo() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = PrivateWeightingProtocol::setup(&[vec![1, 2]], &test_config(), &mut rng);
    }

    fn faulted_config(plan: FaultPlan) -> ProtocolConfig {
        ProtocolConfig { fault_plan: plan, ..test_config() }
    }

    #[test]
    fn faulted_round_without_faults_matches_plain_round() {
        let histogram = small_histogram();
        let mut rng = StdRng::seed_from_u64(51);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 52);
        let plain = run_one(&protocol, RoundInput::new(&deltas, &noises), &mut rng.clone());
        let input = RoundInput { faulted: Some(0), ..RoundInput::new(&deltas, &noises) };
        let faulted = run_one(&protocol, input, &mut rng.clone());
        assert_eq!(faulted.dropped, Some(vec![false; 3]));
        assert_eq!(bits(&plain.aggregate), bits(&faulted.aggregate));
    }

    #[test]
    fn dropout_reweights_surviving_homomorphic_sum_exactly() {
        // A dropped silo's cells are excluded from the homomorphic fold; the decrypted
        // aggregate must equal the surviving-silo plaintext reference (re-weighted by
        // |S|/|S_surviving|) and — before the common re-weighting factor — be bitwise
        // identical to a plain round where the dropped silo's inputs are explicit zeros.
        let histogram = small_histogram();
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(53);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 54);
        let input = RoundInput { faulted: Some(3), ..RoundInput::new(&deltas, &noises) };
        let out = run_one(&protocol, input, &mut rng.clone());
        let (faulted, dropped) = (out.aggregate, out.dropped.expect("faulted round"));
        assert_eq!(dropped.iter().filter(|&&d| d).count(), 1, "0.4 of 3 silos rounds to one");

        let reference = protocol.reference_sum(&deltas, &noises, None, Some(&dropped));
        assert_close(&faulted, &reference);
        // And the re-weighted aggregate genuinely differs from the full-participation one.
        let full = protocol.plaintext_reference(&deltas, &noises, None);
        let diff: f64 = reference.iter().zip(full.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "dropout must change the aggregate");

        // Bitwise exactness of the fold: dropping silo s equals zeroing silo s's inputs.
        let mut zeroed_deltas = deltas.clone();
        let mut zeroed_noises = noises.clone();
        for (silo, &gone) in dropped.iter().enumerate() {
            if gone {
                zeroed_deltas[silo] = vec![Vec::new(); protocol.num_users()];
                zeroed_noises[silo] = vec![0.0; 4];
            }
        }
        let zeroed =
            run_one(&protocol, RoundInput::new(&zeroed_deltas, &zeroed_noises), &mut rng.clone());
        let surviving = dropped.iter().filter(|&&d| !d).count();
        let factor = protocol.num_silos() as f64 / surviving as f64;
        let rescaled: Vec<u64> = zeroed.aggregate.iter().map(|v| (v * factor).to_bits()).collect();
        assert_eq!(bits(&faulted), rescaled);
    }

    #[test]
    fn faulted_round_is_bitwise_identical_across_threads_and_chunks() {
        let histogram = small_histogram();
        let plan = FaultPlan {
            dropout_fraction: 0.4,
            delay_fraction: 0.4,
            delay_ms: 1,
            seed: 5,
            ..FaultPlan::none()
        };
        let run = |threads: usize, chunk_size: usize| {
            let mut rng = StdRng::seed_from_u64(55);
            let cfg = ProtocolConfig { threads, chunk_size, ..faulted_config(plan) };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            let (deltas, noises) = deltas_and_noise(&histogram, 3, 56);
            let input = RoundInput { faulted: Some(1), ..RoundInput::new(&deltas, &noises) };
            let out = run_one(&protocol, input, &mut rng);
            (bits(&out.aggregate), out.dropped)
        };
        let sequential = run(1, usize::MAX);
        for (threads, chunk) in [(2, 1), (4, 7), (2, usize::MAX)] {
            assert_eq!(sequential, run(threads, chunk), "threads={threads} chunk={chunk}");
        }
    }

    #[test]
    fn delayed_silos_inflate_timings_but_not_results() {
        let histogram = small_histogram();
        let plan = FaultPlan { delay_fraction: 1.0, delay_ms: 40, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(57);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 58);
        let plain = run_one(&protocol, RoundInput::new(&deltas, &noises), &mut rng.clone());
        let input = RoundInput { faulted: Some(0), ..RoundInput::new(&deltas, &noises) };
        let delayed = run_one(&protocol, input, &mut rng.clone());
        assert_eq!(delayed.dropped, Some(vec![false; 3]));
        assert_eq!(
            bits(&plain.aggregate),
            bits(&delayed.aggregate),
            "stragglers must not change the aggregate"
        );
        // All three silos straggle by 40 ms each on top of the real fold time.
        assert!(
            delayed.timings.silo_weighting >= Duration::from_millis(120),
            "delayed round must account 3 × 40 ms of straggler lateness"
        );
    }

    fn wide_histogram() -> Vec<Vec<usize>> {
        // 2 silos, 13 users; user 11 holds no records anywhere.
        vec![
            vec![1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1],
            vec![2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 1],
        ]
    }

    #[test]
    fn sparse_and_dense_masks_agree_bitwise_across_rounds() {
        // The same multi-round run under the sparse index-list mask and under its
        // densified copy must produce bit-identical aggregates, and both must match the
        // plaintext reference.
        let histogram = wide_histogram();
        let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
        let data: Vec<_> =
            (0..3u64).map(|round| deltas_and_noise(&histogram, 3, 62 + round)).collect();
        let run = |mask: &SampleMask| {
            let mut rng = StdRng::seed_from_u64(61);
            let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
            let inputs: Vec<RoundInput<'_>> = data
                .iter()
                .map(|(deltas, noises)| RoundInput {
                    sampled: Some(mask),
                    ..RoundInput::new(deltas, noises)
                })
                .collect();
            let outputs = protocol.run_rounds(&inputs, &mut rng);
            for ((deltas, noises), out) in data.iter().zip(&outputs) {
                let reference = protocol.plaintext_reference(deltas, noises, Some(mask));
                assert_close(&out.aggregate, &reference);
            }
            outputs.iter().map(|o| bits(&o.aggregate)).collect::<Vec<_>>()
        };
        assert_eq!(run(&mask), run(&mask.densified()), "mask layout must not change bits");
    }

    #[test]
    fn sparse_rounds_materialise_only_sampled_state() {
        if crate::sampling::dense_mask_forced() {
            return; // the bypass knob deliberately makes every user active
        }
        let histogram = wide_histogram();
        let mut rng = StdRng::seed_from_u64(71);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 72);
        // Only the sampled users with records get a ciphertext — user 11 holds no
        // records and costs nothing — and a different sample swaps the set wholesale.
        let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
        let other = SampleMask::from_sorted_indices(13, vec![0, 4]);
        for (mask, active) in [(&mask, vec![2, 7]), (&other, vec![0, 4]), (&mask, vec![2, 7])] {
            assert!(mask.is_sparse());
            assert_eq!(protocol.active_users(Some(mask)), active);
            let input = RoundInput { sampled: Some(mask), ..RoundInput::new(&deltas, &noises) };
            let out = run_one(&protocol, input, &mut rng);
            assert_close(
                &out.aggregate,
                &protocol.plaintext_reference(&deltas, &noises, Some(mask)),
            );
        }
        assert_eq!(protocol.active_users(None).len(), 13, "no mask keeps every user");
    }

    #[test]
    fn pipelined_replays_match_sequential_replays_bitwise_across_grid() {
        // The tentpole determinism oracle: the same 4-round replay through the round
        // pipeline at depth ∈ {1, 2, 3} must produce aggregates bit-identical to the
        // sequential loop, at several (threads × chunk) points. The pipeline reorders
        // when work happens, never what it computes.
        let histogram = small_histogram();
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 102);
        let run = |threads: usize, chunk_size: usize, depth: usize| {
            let mut rng = StdRng::seed_from_u64(101);
            let cfg = ProtocolConfig { threads, chunk_size, ..test_config() };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            let inputs: Vec<RoundInput<'_>> =
                (0..4).map(|_| RoundInput::new(&deltas, &noises)).collect();
            let outputs = protocol.run_rounds_with_depth(&inputs, depth, &mut rng);
            outputs.iter().map(|o| bits(&o.aggregate)).collect::<Vec<_>>()
        };
        let sequential = run(1, usize::MAX, 0);
        for (threads, chunk) in [(1, usize::MAX), (3, 1), (4, 5)] {
            for depth in [1, 2, 3] {
                assert_eq!(
                    sequential,
                    run(threads, chunk, depth),
                    "threads={threads} chunk={chunk} depth={depth}"
                );
            }
        }
    }

    #[test]
    fn faulted_replay_matches_every_depth_and_rounds_run_alone() {
        // A dropout in the middle of a replay needs no drain: every aggregate and
        // dropout mask is the same at depths 1–3 as at depth 0, and each round equals
        // the same round run alone from the same caller-RNG state — rounds share no
        // state, so running them alone and in reverse order changes no bit.
        let histogram = small_histogram();
        // Round 3 of this plan drops exactly one of the three silos; the other rounds
        // draw empty fault sets.
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 104);
        let inputs: Vec<RoundInput<'_>> = (0..5)
            .map(|t| RoundInput {
                faulted: (t == 3).then_some(3),
                ..RoundInput::new(&deltas, &noises)
            })
            .collect();
        let fingerprint = |o: &RoundOutput| (bits(&o.aggregate), o.dropped.clone());
        let setup = || {
            let mut rng = StdRng::seed_from_u64(103);
            let protocol =
                PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
            (protocol, rng)
        };
        let run = |depth: usize| {
            let (protocol, mut rng) = setup();
            let outputs = protocol.run_rounds_with_depth(&inputs, depth, &mut rng);
            outputs.iter().map(fingerprint).collect::<Vec<_>>()
        };
        let sequential = run(0);
        let dropped_at_3 = sequential[3].1.as_ref().expect("faulted round reports a mask");
        assert_eq!(dropped_at_3.iter().filter(|&&d| d).count(), 1, "round 3 drops one silo");
        assert!(sequential.iter().enumerate().all(|(t, fp)| fp.1.is_some() == (t == 3)));
        for depth in [1, 2, 3] {
            assert_eq!(sequential, run(depth), "depth={depth}");
        }

        // Each round consumes exactly one 256-bit seed from the caller's RNG, so round
        // t's starting state is the post-setup state advanced by t seeds.
        let (protocol, start) = setup();
        for t in (0..inputs.len()).rev() {
            let mut rng = start.clone();
            for _ in 0..t {
                let _ = seeding::wide_seed_from_rng(&mut rng);
            }
            let alone = protocol.run_rounds(&inputs[t..=t], &mut rng);
            assert_eq!(fingerprint(&alone[0]), sequential[t], "round {t} run alone");
        }
    }

    #[test]
    fn single_round_and_depth_zero_replays_take_the_sequential_path() {
        // Replays too short to overlap run the depth-0 loop outright, with the same
        // outputs.
        let histogram = small_histogram();
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 106);
        let mut rng = StdRng::seed_from_u64(105);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let inputs = [RoundInput::new(&deltas, &noises)];
        let via_replay = protocol.run_rounds_with_depth(&inputs, 3, &mut rng.clone());
        let direct = protocol.run_rounds_with_depth(&inputs, 0, &mut rng);
        assert_eq!(bits(&via_replay[0].aggregate), bits(&direct[0].aggregate));
        assert!(via_replay[0].dropped.is_none());
    }

    #[test]
    #[should_panic(expected = "one noise vector per silo required")]
    fn a_malformed_round_mid_replay_panics_instead_of_deadlocking() {
        // The bad round panics on the producer side while the decrypt stage waits for
        // more work; the pipeline must close its queue so the panic can propagate.
        let histogram = small_histogram();
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 108);
        let mut rng = StdRng::seed_from_u64(107);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let inputs = [RoundInput::new(&deltas, &noises), RoundInput::new(&deltas, &noises[..1])];
        let _ = protocol.run_rounds_with_depth(&inputs, 2, &mut rng);
    }
}
