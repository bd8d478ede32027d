#include "hierarchy/game.hpp"

#include "core/check.hpp"
#include "core/thread_pool.hpp"
#include "dtm/view_cache.hpp"
#include "hierarchy/compiled.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>

namespace lph {

RawBitStringDomain::RawBitStringDomain(std::size_t max_length) {
    check(max_length <= 16, "RawBitStringDomain: keep max_length tiny");
    options_.push_back("");
    for (std::size_t len = 1; len <= max_length; ++len) {
        const std::uint64_t count = std::uint64_t{1} << len;
        for (std::uint64_t value = 0; value < count; ++value) {
            options_.push_back(encode_unsigned_width(value, static_cast<int>(len)));
        }
    }
}

namespace {

constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kNoTerminal = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kMaxRecordedFaults = 64;
constexpr std::uint64_t kChunksPerWorker = 8;
/// Cap on the packed low-block width (leaves per pattern rebuild).  A single
/// node whose option list alone exceeds this also blows the per-class table
/// budget, so past it the store serves leaves one at a time.
constexpr std::uint64_t kMaxBlockLeaves = std::uint64_t{1} << 16;

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
    if (a == 0 || b == 0) {
        return 0;
    }
    return a > kSaturated / b ? kSaturated : a * b;
}

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

} // namespace

/// Lazily-built per-ball store, cached on the tables so a whole batch flavor
/// classifies once and fills one store.  Lives behind a shared_ptr so
/// GameTables stays movable (std::mutex is not).
struct GameTables::CompiledSlot {
    std::mutex mutex;
    bool attempted = false;
    std::string signature;
    std::unique_ptr<CompiledGameCore> core;
};

namespace {

/// The execution-option fields a store's entries depend on (plus the machine
/// identity and the memoizability gates).  on_violation and the wall-clock
/// deadline are deliberately absent: tables only ever hold clean, completed
/// runs, which neither the violation policy nor timing can change.
std::string compile_signature(const GameSpec& spec, const ExecutionOptions& exec) {
    std::ostringstream sig;
    sig << static_cast<const void*>(spec.machine) << '|' << exec.max_rounds
        << '|' << exec.max_steps_per_round << '|'
        << exec.enforce_declared_bounds << '|' << exec.max_space_per_node
        << '|' << exec.validate_certificates << '|' << (exec.faults != nullptr)
        << '|' << (exec.max_total_message_bytes > 0);
    return sig.str();
}

} // namespace

const CompiledGameCore* GameTables::compiled(const GameSpec& spec,
                                             const LabeledGraph& g,
                                             const IdentifierAssignment& id,
                                             const ExecutionOptions& exec,
                                             double* built_now_ms) const {
    if (built_now_ms != nullptr) {
        *built_now_ms = 0;
    }
    const std::string signature = compile_signature(spec, exec);
    const std::lock_guard<std::mutex> lock(slot_->mutex);
    if (slot_->attempted && slot_->signature == signature) {
        return slot_->core.get();
    }
    auto fresh = CompiledGameCore::compile(spec, *this, g, id, exec);
    if (fresh != nullptr) {
        if (built_now_ms != nullptr) {
            *built_now_ms = fresh->compile_ms();
        }
        slot_->core = std::move(fresh);
        slot_->signature = signature;
        slot_->attempted = true;
        return slot_->core.get();
    }
    // Keep an existing core built under a different signature: a faulted
    // request in the middle of a batch must not evict the batch's tables.
    if (!slot_->attempted) {
        slot_->signature = signature;
        slot_->attempted = true;
    }
    return nullptr;
}

GameTables::GameTables(const GameSpec& spec, const LabeledGraph& g,
                       const IdentifierAssignment& id)
    : slot_(std::make_shared<CompiledSlot>()) {
    for (const CertificateDomain* domain : spec.layers) {
        std::vector<std::vector<BitString>> table(g.num_nodes());
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
            table[u] = domain->options(g, id, u);
            check(!table[u].empty(), "play_game: a certificate domain is empty");
        }
        tables_.push_back(std::move(table));
    }
}

std::uint64_t GameTables::layer_product(std::size_t i) const {
    std::uint64_t product = 1;
    for (const auto& options : tables_.at(i)) {
        product = saturating_mul(product, options.size());
    }
    return product;
}

std::uint64_t GameTables::tree_size() const {
    std::uint64_t total = 1;
    for (std::size_t i = 0; i < tables_.size(); ++i) {
        total = saturating_mul(total, layer_product(i));
    }
    return total;
}

namespace {

/// Deterministic per-leaf-order counters: everything the sequential engine
/// would have accumulated up to (and including) one outer assignment.
struct Tally {
    std::uint64_t machine_runs = 0;
    std::uint64_t faulted_runs = 0;
    std::vector<RunFault> faults; ///< capped at kMaxRecordedFaults

    void add_fault(const RunFault& f) {
        if (faults.size() < kMaxRecordedFaults) {
            faults.push_back(f);
        }
    }
};

/// What one contiguous range of outer assignments produced.
struct ChunkOutcome {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    /// Index of the assignment that decided the outer quantifier (or threw);
    /// kNoTerminal when the whole range was exhausted without one.
    std::uint64_t terminal = kNoTerminal;
    std::exception_ptr error; ///< set when `terminal` threw
    Tally tally;              ///< covers the processed prefix of the range
    double busy_ms = 0;
};

/// Per-worker state of the packed (compiled-backend) deepest-layer scan:
/// for every node, the configuration contribution of all digits outside the
/// low block ("base") and the node's known/accept pattern words over the low
/// block.  Patterns are rebuilt lazily: a digit change dirties exactly the
/// nodes whose cert ball contains the changed position (the store's
/// affected lists), and a leaf that fills entries dirties the nodes that did
/// not know it, so most patterns survive across blocks and inner scans.
struct PackedState {
    bool ready = false;
    std::vector<std::uint64_t> base;    ///< per node
    std::vector<std::uint64_t> known;   ///< node * words + w
    std::vector<std::uint64_t> accept;  ///< node * words + w
    std::vector<std::uint8_t> dirty;    ///< per node
    std::vector<std::size_t> low_digits; ///< odometer scratch
};

/// Everything one worker mutates while walking its share of the game tree.
struct WorkerContext {
    std::vector<CertificateAssignment> chosen;
    std::vector<std::vector<std::size_t>> idx;
    Tally tally;
    std::string key_scratch;
    std::vector<NodeId> miss_scratch;
    std::vector<std::uint64_t> configs; ///< per node, the current leaf's entry
    PackedState packed;
    // Perf counters (accumulated across this worker's chunks).
    std::uint64_t leaves_processed = 0;
    std::uint64_t local_runs = 0;
    std::uint64_t leaf_cache_hits = 0;
    std::uint64_t packed_words = 0;
    std::uint64_t partial_leaf_evals = 0;
    std::uint64_t ball_runs = 0;

    void ensure(std::size_t layers, std::size_t n) {
        if (chosen.size() != layers) {
            chosen.assign(layers,
                          CertificateAssignment(std::vector<BitString>(n)));
            idx.assign(layers, std::vector<std::size_t>(n, 0));
        }
    }
};

class GameSolver {
    using Entry = CompiledGameCore::Entry;

public:
    GameSolver(const GameSpec& spec, const GameTables& tables,
               const LabeledGraph& g, const IdentifierAssignment& id,
               const GameOptions& options)
        : spec_(spec), tables_(tables), g_(g), id_(id), options_(options) {
        check(spec.machine != nullptr, "play_game: no machine");
        check(tables.layers() == spec.layers.size(),
              "play_game: tables were built for a different spec");
        for (std::size_t i = 0; i < tables.layers(); ++i) {
            check(tables.layer_product(i) <= options.max_assignments_per_layer,
                  "play_game: layer assignment space exceeds the guard");
        }
        if (options.memoize_views && options.backend == GameBackend::Compiled &&
            tables.layers() > 0) {
            compiled_ = tables.compiled(spec, g, id, options.exec,
                                        &compile_ms_paid_);
        }
        if (compiled_ != nullptr) {
            keys_ = &compiled_->keys();
            setup_packing();
            balls_.resize(g.num_nodes());
        } else if (options.memoize_views) {
            owned_keys_ = std::make_unique<ViewKeyBuilder>(*spec.machine, g, id,
                                                           options.exec);
            keys_ = owned_keys_->cacheable() ? owned_keys_.get() : nullptr;
        }
        if (keys_ != nullptr) {
            cache_ = options.view_cache;
            if (cache_ == nullptr) {
                owned_cache_ = std::make_unique<ViewCache>(options.view_cache_entries);
                cache_ = owned_cache_.get();
            }
        }
    }

    GameResult run() {
        LPH_SPAN_NAMED(span, "game", "game.solve");
        const ViewCacheStats cache_before =
            cache_ != nullptr ? cache_->stats() : ViewCacheStats{};

        GameResult result;
        if (spec_.layers.empty()) {
            run_leaf_only(result);
        } else {
            run_layered(result);
        }

        result.stats.wall_ms = elapsed_ms(start_);
        result.stats.compile_ms = compile_ms_paid_;
        if (compiled_ != nullptr) {
            result.stats.orbit_hits = compiled_->orbit_hits();
            result.stats.compiled_classes = compiled_->classes().size();
        }
        if (cache_ != nullptr) {
            const ViewCacheStats after = cache_->stats();
            result.stats.node_cache_hits = after.hits - cache_before.hits;
            result.stats.node_cache_misses = after.misses - cache_before.misses;
            result.stats.cache_evictions = after.evictions - cache_before.evictions;
        }
        span.arg("leaves", result.stats.leaves_processed);
        record_session_metrics(result);
        return result;
    }

private:
    bool existential(std::size_t layer) const {
        return spec_.starts_existential ? layer % 2 == 0 : layer % 2 == 1;
    }

    // --- Odometer over one layer's per-node option table. -----------------

    /// Seeds layer digits to the mixed-radix decomposition of `linear`
    /// (position 0 is the fastest-running digit, matching increment order).
    void seed_layer(std::size_t layer, std::uint64_t linear, WorkerContext& ctx) {
        const auto& table = tables_.layer(layer);
        for (NodeId u = 0; u < g_.num_nodes(); ++u) {
            const std::uint64_t size = table[u].size();
            const std::size_t digit = static_cast<std::size_t>(linear % size);
            linear /= size;
            if (ctx.idx[layer][u] != digit) {
                mark_affected(u, ctx);
            }
            ctx.idx[layer][u] = digit;
            ctx.chosen[layer].set(u, table[u][digit]);
        }
    }

    /// Advances the layer's odometer by one, rewriting only the positions
    /// that changed.  Returns false when the layer wrapped around.
    bool advance_layer(std::size_t layer, WorkerContext& ctx) {
        const auto& table = tables_.layer(layer);
        std::vector<std::size_t>& idx = ctx.idx[layer];
        for (std::size_t pos = 0; pos < idx.size(); ++pos) {
            mark_affected(static_cast<NodeId>(pos), ctx);
            if (++idx[pos] < table[pos].size()) {
                ctx.chosen[layer].set(pos, table[pos][idx[pos]]);
                return true;
            }
            idx[pos] = 0;
            ctx.chosen[layer].set(pos, table[pos][0]);
        }
        return false;
    }

    // --- Packed evaluation over the compiled decision tables. -------------
    //
    // The deepest layer D is scanned 64 leaves per word: its fastest-running
    // digits — the nodes [0, low_count_) — form a "low block" of block_
    // consecutive assignments, and every node keeps a bitset pattern (one
    // known bit + one accept bit per block offset) derived from its class
    // table.  ANDing the per-node pattern words answers 64 leaves at once;
    // a leaf some node does not know yet takes the scalar store path
    // (evaluate_leaf), which fills the missing entries and keeps the
    // deterministic counters and fault records bit-identical to the
    // interpreted engine.  Patterns depend only on the digits *outside* the
    // low block (folded into a per-node base index), so they survive across
    // blocks and are rebuilt only for nodes whose cert ball saw a digit
    // change or whose entries just filled.

    /// Chooses the low block for the deepest layer and precomputes each
    /// node's per-low-digit strides.  Leaves packing off when a single
    /// node's options exceed the block cap.
    void setup_packing() {
        deepest_ = tables_.layers() - 1;
        const auto& table = tables_.layer(deepest_);
        const std::size_t n = g_.num_nodes();
        block_ = 1;
        low_count_ = 0;
        while (low_count_ < n && block_ < 64) {
            block_ *= table[low_count_].size();
            ++low_count_;
        }
        if (block_ > kMaxBlockLeaves) {
            return;
        }
        packed_ = true;
        words_ = static_cast<std::size_t>((block_ + 63) / 64);
        const std::size_t layers = tables_.layers();
        low_strides_.assign(n * low_count_, 0);
        has_low_.assign(n, 0);
        for (NodeId u = 0; u < n; ++u) {
            const auto& node = compiled_->nodes()[u];
            const auto& cls = compiled_->classes()[node.cls];
            for (std::size_t j = 0; j < node.members.size(); ++j) {
                const NodeId m = node.members[j];
                if (m < low_count_) {
                    low_strides_[u * low_count_ + m] =
                        cls.strides[j * layers + deepest_];
                    has_low_[u] = 1;
                }
            }
        }
    }

    /// Marks every node whose table configuration depends on v's digits as
    /// needing a base + pattern rebuild.  No-op until the worker's packed
    /// state exists (initialization computes everything anyway).
    void mark_affected(NodeId v, WorkerContext& ctx) const {
        if (!packed_ || !ctx.packed.ready) {
            return;
        }
        for (const NodeId u : compiled_->affected()[v]) {
            ctx.packed.dirty[u] = 1;
        }
    }

    void ensure_packed(WorkerContext& ctx) const {
        PackedState& ps = ctx.packed;
        if (ps.ready) {
            return;
        }
        const std::size_t n = g_.num_nodes();
        ps.base.assign(n, 0);
        ps.known.assign(n * words_, 0);
        ps.accept.assign(n * words_, 0);
        ps.dirty.assign(n, 1);
        ps.low_digits.assign(low_count_, 0);
        ps.ready = true;
    }

    /// u's configuration index under the worker's current digits: the sum
    /// of every (member, layer) digit times its stride, with the low-block
    /// digits left out (taken as zero) when `skip_low`.  0 for classes
    /// without a table.
    std::uint64_t config_for(NodeId u, const WorkerContext& ctx,
                             bool skip_low) const {
        const auto& node = compiled_->nodes()[u];
        const auto& cls = compiled_->classes()[node.cls];
        if (!cls.dense) {
            return 0;
        }
        const std::size_t layers = tables_.layers();
        std::uint64_t config = 0;
        for (std::size_t j = 0; j < node.members.size(); ++j) {
            const NodeId m = node.members[j];
            for (std::size_t l = 0; l < layers; ++l) {
                if (skip_low && l == deepest_ && m < low_count_) {
                    continue;
                }
                config += static_cast<std::uint64_t>(ctx.idx[l][m]) *
                          cls.strides[j * layers + l];
            }
        }
        return config;
    }

    /// Rebuilds the base and pattern of every dirty node.
    void refresh_patterns(WorkerContext& ctx) const {
        PackedState& ps = ctx.packed;
        for (NodeId u = 0; u < g_.num_nodes(); ++u) {
            if (ps.dirty[u]) {
                ps.base[u] = config_for(u, ctx, /*skip_low=*/true);
                rebuild_pattern(u, ctx);
                ps.dirty[u] = 0;
            }
        }
    }

    /// Recomputes u's known/accept pattern words over the low block from its
    /// class table, walking the block offsets with an incremental odometer
    /// over the low digits (configuration updated by stride deltas).
    void rebuild_pattern(NodeId u, WorkerContext& ctx) const {
        PackedState& ps = ctx.packed;
        std::uint64_t* known = ps.known.data() + u * words_;
        std::uint64_t* accept = ps.accept.data() + u * words_;
        const std::uint32_t cls = compiled_->nodes()[u].cls;
        if (!compiled_->classes()[cls].dense || !has_low_[u]) {
            // No table, or no cert member inside the low block: one entry
            // answers the whole block.
            const Entry e = compiled_->entry(cls, ps.base[u]);
            const bool k = e == Entry::Accept || e == Entry::Reject;
            std::fill(known, known + words_, k ? ~std::uint64_t{0} : 0);
            std::fill(accept, accept + words_,
                      e == Entry::Accept ? ~std::uint64_t{0} : 0);
            return;
        }
        const std::uint64_t* strides = low_strides_.data() + u * low_count_;
        const auto& table = tables_.layer(deepest_);
        std::fill(known, known + words_, 0);
        std::fill(accept, accept + words_, 0);
        std::fill(ps.low_digits.begin(), ps.low_digits.end(), 0);
        std::uint64_t config = ps.base[u];
        for (std::uint64_t o = 0;; ++o) {
            const Entry e = compiled_->entry(cls, config);
            if (e == Entry::Accept || e == Entry::Reject) {
                known[o >> 6] |= std::uint64_t{1} << (o & 63);
                if (e == Entry::Accept) {
                    accept[o >> 6] |= std::uint64_t{1} << (o & 63);
                }
            }
            if (o + 1 == block_) {
                break;
            }
            for (std::size_t v = 0;; ++v) {
                if (++ps.low_digits[v] < table[v].size()) {
                    config += strides[v];
                    break;
                }
                config -= static_cast<std::uint64_t>(ps.low_digits[v] - 1) *
                          strides[v];
                ps.low_digits[v] = 0;
            }
        }
    }

    /// Seeds the deepest layer's digits to the decomposition of `linear`,
    /// dirtying the cert balls of changed *high* digits (low digits are
    /// ranged over by the patterns, so changes there are free).
    void seed_packed_digits(std::uint64_t linear, WorkerContext& ctx) const {
        const auto& table = tables_.layer(deepest_);
        for (NodeId u = 0; u < g_.num_nodes(); ++u) {
            const std::uint64_t size = table[u].size();
            const std::size_t digit = static_cast<std::size_t>(linear % size);
            linear /= size;
            if (u >= low_count_ && ctx.idx[deepest_][u] != digit) {
                mark_affected(u, ctx);
            }
            ctx.idx[deepest_][u] = digit;
        }
    }

    /// Advances the deepest layer's odometer by one whole block (the caller
    /// guarantees no full wrap).
    void advance_high(WorkerContext& ctx) const {
        const auto& table = tables_.layer(deepest_);
        std::vector<std::size_t>& idx = ctx.idx[deepest_];
        for (std::size_t pos = low_count_; pos < idx.size(); ++pos) {
            mark_affected(static_cast<NodeId>(pos), ctx);
            if (++idx[pos] < table[pos].size()) {
                return;
            }
            idx[pos] = 0;
        }
    }

    /// Materializes the full certificate assignment of one packed leaf (low
    /// digits from the block offset, high digits already current) and runs
    /// the interpreted evaluator on it.
    bool materialize_packed_leaf(std::uint64_t offset, WorkerContext& ctx) {
        const auto& table = tables_.layer(deepest_);
        for (NodeId u = 0; u < low_count_; ++u) {
            const std::uint64_t size = table[u].size();
            ctx.idx[deepest_][u] = static_cast<std::size_t>(offset % size);
            offset /= size;
        }
        for (NodeId u = 0; u < g_.num_nodes(); ++u) {
            ctx.chosen[deepest_].set(u, table[u][ctx.idx[deepest_][u]]);
        }
        return evaluate_leaf(ctx);
    }

    /// Scans deepest-layer assignments [begin, end) in order for the first
    /// one whose leaf value equals `want`, 64 leaves per pattern word.
    /// Returns its index, or kNoTerminal when the range is exhausted (or,
    /// for outer scans, when a smaller terminal was already published).
    /// Counters are bit-identical to the scalar scan: pattern-served leaves
    /// count as leaf cache hits, and each leaf some node does not know takes
    /// the scalar store path (the only source of faults — table entries hold
    /// clean runs only).  On a throw, `*thrown_index` holds the leaf being
    /// evaluated.
    std::uint64_t packed_scan(std::uint64_t begin, std::uint64_t end, bool want,
                              bool outer, WorkerContext& ctx,
                              std::uint64_t* thrown_index) {
        ensure_packed(ctx);
        seed_packed_digits(begin, ctx);
        PackedState& ps = ctx.packed;
        const std::size_t n = g_.num_nodes();
        std::uint64_t block_first = begin - begin % block_;
        while (block_first < end) {
            const std::uint64_t bit_lo =
                begin > block_first ? begin - block_first : 0;
            const std::uint64_t bit_hi =
                std::min<std::uint64_t>(block_, end - block_first);
            if (thrown_index != nullptr) {
                *thrown_index = block_first + bit_lo;
            }
            if (outer && block_first + bit_lo >
                             min_terminal_.load(std::memory_order_relaxed)) {
                return kNoTerminal;
            }
            refresh_patterns(ctx);
            for (std::uint64_t w = bit_lo >> 6; (w << 6) < bit_hi; ++w) {
                const std::uint64_t word_base = w << 6;
                unsigned lo_bit = static_cast<unsigned>(
                    bit_lo > word_base ? bit_lo - word_base : 0);
                const unsigned hi_bit = static_cast<unsigned>(
                    std::min<std::uint64_t>(64, bit_hi - word_base));
                while (lo_bit < hi_bit) {
                    std::uint64_t kword = ~std::uint64_t{0};
                    std::uint64_t aword = ~std::uint64_t{0};
                    for (NodeId u = 0; u < n; ++u) {
                        kword &= ps.known[u * words_ + w];
                        aword &= ps.accept[u * words_ + w];
                    }
                    ctx.packed_words += n;

                    // The leaves before the first one some node does not
                    // know are answered by the AND: a leaf accepts iff every
                    // node accepts.
                    const std::uint64_t unknown =
                        ~kword & bits_between(lo_bit, hi_bit);
                    const unsigned stop =
                        unknown != 0
                            ? static_cast<unsigned>(std::countr_zero(unknown))
                            : hi_bit;
                    const std::uint64_t match =
                        (want ? aword : ~aword) & bits_between(lo_bit, stop);
                    if (match != 0) {
                        const unsigned pos =
                            static_cast<unsigned>(std::countr_zero(match));
                        count_pattern_leaves(pos - lo_bit + 1, ctx);
                        return block_first + word_base + pos;
                    }
                    count_pattern_leaves(stop - lo_bit, ctx);
                    if (stop == hi_bit) {
                        break;
                    }
                    const std::uint64_t a = block_first + word_base + stop;
                    if (thrown_index != nullptr) {
                        *thrown_index = a;
                    }
                    if (materialize_packed_leaf(a - block_first, ctx) == want) {
                        return a;
                    }
                    // The leaf filled entries (and other workers may have):
                    // rebuild the nodes that did not know it.
                    for (NodeId u = 0; u < n; ++u) {
                        if (((ps.known[u * words_ + w] >> stop) & 1) == 0) {
                            ps.dirty[u] = 1;
                        }
                    }
                    refresh_patterns(ctx);
                    lo_bit = stop + 1;
                }
            }
            block_first += block_;
            if (block_first < end) {
                advance_high(ctx);
            }
        }
        return kNoTerminal;
    }

    /// The bits [lo, hi) of a word (lo <= hi <= 64).
    static std::uint64_t bits_between(unsigned lo, unsigned hi) {
        const std::uint64_t below_hi =
            hi == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1;
        return below_hi & ~((std::uint64_t{1} << lo) - 1);
    }

    static void count_pattern_leaves(std::uint64_t leaves, WorkerContext& ctx) {
        ctx.tally.machine_runs += leaves;
        ctx.leaves_processed += leaves;
        ctx.leaf_cache_hits += leaves;
    }

    // --- Leaf evaluation with locality-aware memoization. -----------------

    /// Evaluates one leaf of the game tree.  Under tolerate_faults a probe
    /// that cannot finish cleanly is a recorded loss, not a process abort.
    /// A leaf all of whose node verdicts are memoized (in the store or, on
    /// the interpreted path, the view cache) short-circuits without a
    /// full-graph run; faulting runs are never memoized, so the
    /// deterministic counters (machine_runs, faulted_runs, probe_faults) are
    /// memo-independent.
    bool evaluate_leaf(WorkerContext& ctx) {
        ++ctx.tally.machine_runs;
        ++ctx.leaves_processed;
        if (compiled_ != nullptr) {
            return evaluate_stored_leaf(ctx);
        }
        const auto list =
            CertificateListAssignment::concatenate(ctx.chosen, g_.num_nodes());
        if (cache_ != nullptr) {
            bool all_hit = true;
            bool all_accept = true;
            for (NodeId u = 0; u < g_.num_nodes() && all_hit; ++u) {
                keys_->key_for(u, list, ctx.key_scratch);
                const auto verdict = cache_->lookup(ctx.key_scratch);
                if (!verdict.has_value()) {
                    all_hit = false;
                } else if (*verdict != "1") {
                    all_accept = false;
                }
            }
            if (all_hit) {
                ++ctx.leaf_cache_hits;
                return all_accept;
            }
        }
        return run_full_leaf(list, ctx);
    }

    /// The store's leaf: each node's verdict comes from its class table;
    /// the Unfilled ones from the view cache (see in_view_cache), then from
    /// induced-ball runs when the missing balls together are smaller than
    /// the graph.  An Unknown entry, an unclean ball run or balls as large
    /// as the graph take the full-graph run.  Every clean verdict found on
    /// the way is memoized.
    bool evaluate_stored_leaf(WorkerContext& ctx) {
        const std::size_t n = g_.num_nodes();
        bool accept = true;
        bool unknown = false;
        ctx.miss_scratch.clear();
        ctx.configs.resize(n);
        for (NodeId u = 0; u < n; ++u) {
            ctx.configs[u] = config_for(u, ctx, /*skip_low=*/false);
            const Entry e = compiled_->entry(compiled_->nodes()[u].cls, ctx.configs[u]);
            accept = accept && e != Entry::Reject;
            unknown = unknown || e == Entry::Unknown;
            if (e == Entry::Unfilled) {
                ctx.miss_scratch.push_back(u);
            }
        }
        if (!unknown && ctx.miss_scratch.empty()) {
            ++ctx.leaf_cache_hits;
            return accept;
        }
        const auto list = CertificateListAssignment::concatenate(ctx.chosen, n);
        if (unknown) {
            return run_full_leaf(list, ctx);
        }
        std::size_t missing = 0;
        for (const NodeId u : ctx.miss_scratch) {
            if (!in_view_cache(u)) {
                ctx.miss_scratch[missing++] = u;
                continue;
            }
            keys_->key_for(u, list, ctx.key_scratch);
            const auto verdict = cache_->lookup(ctx.key_scratch);
            if (!verdict.has_value()) {
                ctx.miss_scratch[missing++] = u;
                continue;
            }
            compiled_->fill(compiled_->nodes()[u].cls, ctx.configs[u],
                            *verdict == "1" ? Entry::Accept : Entry::Reject);
            accept = accept && *verdict == "1";
        }
        ctx.miss_scratch.resize(missing);
        if (missing == 0) {
            ++ctx.leaf_cache_hits;
            return accept;
        }
        if (const std::optional<bool> value = evaluate_partial(list, accept, ctx)) {
            ++ctx.partial_leaf_evals;
            return *value;
        }
        return run_full_leaf(list, ctx);
    }

    /// One full-graph run of the leaf; a clean, completed one memoizes its
    /// per-node verdicts (under the store, those of the still-Unfilled
    /// entries).
    bool run_full_leaf(const CertificateListAssignment& list, WorkerContext& ctx) {
        ExecutionOptions exec_options = options_.exec;
        if (options_.tolerate_faults &&
            exec_options.on_violation == FaultPolicy::Throw) {
            exec_options.on_violation = FaultPolicy::Record;
        }
        try {
            const ExecutionResult exec =
                run_local(*spec_.machine, g_, id_, list, exec_options);
            ++ctx.local_runs;
            if (!exec.ok() || !exec.faults.empty()) {
                ++ctx.tally.faulted_runs;
                for (const RunFault& f : exec.faults) {
                    ctx.tally.add_fault(f);
                }
                return false;
            }
            // Only *clean, completed* runs are cacheable: an incomplete run's
            // outputs reflect more rounds than the key's radius covers.
            if (cache_ != nullptr && exec.completed) {
                for (NodeId u = 0; u < g_.num_nodes(); ++u) {
                    if (compiled_ == nullptr ||
                        compiled_->entry(compiled_->nodes()[u].cls,
                                         ctx.configs[u]) == Entry::Unfilled) {
                        memoize(u, list, exec.outputs[u], ctx);
                    }
                }
            }
            return exec.accepted;
        } catch (const run_error& e) {
            ++ctx.local_runs;
            if (!options_.tolerate_faults) {
                throw;
            }
            ++ctx.tally.faulted_runs;
            ctx.tally.add_fault(e.fault());
            return false;
        }
    }

    /// Whether u's verdicts are memoized in the view cache: always on the
    /// interpreted path; under the store, for classes without a table and
    /// whenever the cache is the caller's (it outlives the solve).  A
    /// private cache would only ever repeat what a table holds.
    bool in_view_cache(NodeId u) const {
        return compiled_ == nullptr || options_.view_cache != nullptr ||
               !compiled_->classes()[compiled_->nodes()[u].cls].dense;
    }

    /// Writes one clean verdict to the store (when there is one) and the
    /// view cache.
    void memoize(NodeId u, const CertificateListAssignment& list,
                 const std::string& verdict, WorkerContext& ctx) {
        if (compiled_ != nullptr) {
            compiled_->fill(compiled_->nodes()[u].cls, ctx.configs[u],
                            verdict == "1" ? Entry::Accept : Entry::Reject);
        }
        if (in_view_cache(u)) {
            keys_->key_for(u, list, ctx.key_scratch);
            cache_->insert(ctx.key_scratch, verdict);
        }
    }

    /// The induced radius-R ball of u, built on first use and shared by
    /// every worker for the rest of the solve (the graph and identifiers
    /// are solve-constant; only certificates vary per leaf).
    const InducedBall& ball_for(NodeId u) {
        const std::lock_guard<std::mutex> lock(ball_mutex_);
        if (balls_[u] == nullptr) {
            balls_[u] = std::make_unique<const InducedBall>(
                induced_ball(g_, id_, u, keys_->radius()));
        }
        return *balls_[u];
    }

    /// Attempts to finish a leaf from per-node induced-ball runs of the
    /// missing nodes (ctx.miss_scratch).  Returns the leaf value when every
    /// ball run was clean and completed — then the full-graph run would have
    /// been clean too, with identical per-node outputs (the ball rule,
    /// dtm/view_cache.hpp) — and nullopt when any run was unclean (its entry
    /// becomes Unknown) or the balls cover the whole graph anyway, demanding
    /// the full run.  Clean ball verdicts are memoized.
    std::optional<bool> evaluate_partial(const CertificateListAssignment& list,
                                         bool all_accept, WorkerContext& ctx) {
        std::size_t ball_total = 0;
        for (const NodeId u : ctx.miss_scratch) {
            ball_total += ball_for(u).sub.graph.num_nodes();
        }
        if (ball_total >= g_.num_nodes()) {
            return std::nullopt; // the full run is no more expensive
        }
        for (const NodeId u : ctx.miss_scratch) {
            const InducedBall& ball = ball_for(u);
            const std::size_t sub_n = ball.sub.graph.num_nodes();
            std::vector<std::string> lists(sub_n);
            for (NodeId s = 0; s < sub_n; ++s) {
                lists[s] = list.at(ball.sub.to_original[s]);
            }
            ++ctx.ball_runs;
            const std::optional<std::string> verdict = clean_ball_output(
                *spec_.machine, ball,
                CertificateListAssignment::from_raw(std::move(lists),
                                                    spec_.layers.size()),
                options_.exec);
            if (!verdict.has_value()) {
                compiled_->fill(compiled_->nodes()[u].cls, ctx.configs[u],
                                Entry::Unknown);
                return std::nullopt;
            }
            memoize(u, list, *verdict, ctx);
            if (*verdict != "1") {
                all_accept = false;
            }
        }
        return all_accept;
    }

    /// Exact game value of the subtree below one outer assignment
    /// (layers 1..L-1 enumerated with the incremental odometer).
    bool inner_value(std::size_t layer, WorkerContext& ctx) {
        if (layer == spec_.layers.size()) {
            return evaluate_leaf(ctx);
        }
        const bool want = existential(layer);
        if (packed_ && layer == deepest_) {
            const std::uint64_t found = packed_scan(
                0, tables_.layer_product(layer), want, /*outer=*/false, ctx,
                /*thrown_index=*/nullptr);
            return found != kNoTerminal ? want : !want;
        }
        seed_layer(layer, 0, ctx);
        while (true) {
            if (inner_value(layer + 1, ctx) == want) {
                return want;
            }
            if (!advance_layer(layer, ctx)) {
                return !want;
            }
        }
    }

    // --- Outer-layer fan-out with deterministic merge. --------------------

    /// Processes outer assignments [begin, end): walks them in order,
    /// stopping at the first decisive/throwing one or when a smaller
    /// terminal index has been published by another worker.  Because
    /// published terminals only ever shrink toward the final minimum, no
    /// assignment below the final terminal is ever skipped — which is what
    /// makes the merged counters bit-identical to the sequential engine's.
    void process_chunk(std::uint64_t chunk_index, WorkerContext& ctx) {
        LPH_SPAN_NAMED(span, "game", "game.chunk");
        span.arg("chunk", chunk_index);
        ChunkOutcome& out = outcomes_[chunk_index];
        const Clock::time_point start = Clock::now();
        ctx.ensure(spec_.layers.size(), g_.num_nodes());
        ctx.tally = Tally{};
        if (packed_ && spec_.layers.size() == 1) {
            // Single-layer game: the outer layer IS the packed layer, so the
            // chunk is one packed range scan.
            std::uint64_t threw_at = out.begin;
            try {
                const std::uint64_t found =
                    packed_scan(out.begin, out.end, want_outer_,
                                /*outer=*/true, ctx, &threw_at);
                if (found != kNoTerminal) {
                    out.terminal = found;
                    publish_terminal(found);
                }
            } catch (...) {
                out.terminal = threw_at;
                out.error = std::current_exception();
                publish_terminal(threw_at);
            }
            out.tally = std::move(ctx.tally);
            ctx.tally = Tally{};
            out.busy_ms = elapsed_ms(start);
            return;
        }
        bool seeded = false;
        for (std::uint64_t a = out.begin; a < out.end; ++a) {
            if (a > min_terminal_.load(std::memory_order_relaxed)) {
                break;
            }
            if (!seeded) {
                seed_layer(0, a, ctx);
                seeded = true;
            }
            bool inner = false;
            bool threw = false;
            try {
                inner = inner_value(1, ctx);
            } catch (...) {
                out.terminal = a;
                out.error = std::current_exception();
                publish_terminal(a);
                threw = true;
            }
            if (threw) {
                break;
            }
            if (inner == want_outer_) {
                out.terminal = a;
                publish_terminal(a);
                break;
            }
            if (!advance_layer(0, ctx)) {
                break;
            }
        }
        out.tally = std::move(ctx.tally);
        ctx.tally = Tally{};
        out.busy_ms = elapsed_ms(start);
    }

    void publish_terminal(std::uint64_t index) {
        std::uint64_t seen = min_terminal_.load(std::memory_order_relaxed);
        while (index < seen &&
               !min_terminal_.compare_exchange_weak(seen, index,
                                                    std::memory_order_acq_rel)) {
        }
    }

    void run_leaf_only(GameResult& result) {
        // No quantifier layers: the game is a single arbiter run.  The lone
        // probe still counts as busy time so worker_utilization() stays
        // meaningful (and consistent with the layered paths).
        const Clock::time_point start = Clock::now();
        WorkerContext ctx;
        ctx.ensure(0, g_.num_nodes());
        result.accepted = evaluate_leaf(ctx);
        result.machine_runs = ctx.tally.machine_runs;
        result.faulted_runs = ctx.tally.faulted_runs;
        result.probe_faults = std::move(ctx.tally.faults);
        collect_perf(result, {&ctx});
        result.stats.busy_ms = elapsed_ms(start);
    }

    void run_layered(GameResult& result) {
        want_outer_ = existential(0);
        const std::uint64_t product = tables_.layer_product(0);

        unsigned participants = options_.threads == 0
                                    ? ThreadPool::default_participants()
                                    : options_.threads;
        participants = std::max(1u, participants);
        if (static_cast<std::uint64_t>(participants) > product) {
            participants = static_cast<unsigned>(product);
        }

        const std::uint64_t chunk_count =
            participants == 1
                ? 1
                : std::min<std::uint64_t>(product, static_cast<std::uint64_t>(
                                                       participants) *
                                                       kChunksPerWorker);
        outcomes_.assign(static_cast<std::size_t>(chunk_count), ChunkOutcome{});
        for (std::uint64_t c = 0; c < chunk_count; ++c) {
            outcomes_[c].begin = product / chunk_count * c +
                                 std::min<std::uint64_t>(c, product % chunk_count);
            outcomes_[c].end = product / chunk_count * (c + 1) +
                               std::min<std::uint64_t>(c + 1, product % chunk_count);
        }
        min_terminal_.store(kNoTerminal, std::memory_order_relaxed);

        std::vector<WorkerContext> contexts;
        if (participants == 1) {
            contexts.resize(1);
            for (std::uint64_t c = 0; c < chunk_count; ++c) {
                process_chunk(c, contexts[0]);
                if (outcomes_[c].terminal != kNoTerminal) {
                    break;
                }
            }
        } else {
            // The shared pool may have more participants than requested;
            // size the per-participant contexts to the actual pool.
            ThreadPool& pool = ThreadPool::shared_for(participants);
            contexts.resize(pool.participants());
            pool.run_all(static_cast<std::size_t>(chunk_count),
                         [&](std::size_t chunk, unsigned participant) {
                             process_chunk(chunk, contexts[participant]);
                         });
            pool_used_ = &pool;
        }

        merge(result, contexts);
    }

    void merge(GameResult& result, std::vector<WorkerContext>& contexts) {
        std::uint64_t terminal = kNoTerminal;
        std::exception_ptr error;
        for (const ChunkOutcome& out : outcomes_) {
            if (out.terminal < terminal) {
                terminal = out.terminal;
                error = out.error;
            }
        }
        for (const ChunkOutcome& out : outcomes_) {
            if (out.begin > terminal) {
                break; // ranges are ascending; nothing past the terminal counts
            }
            result.machine_runs += out.tally.machine_runs;
            result.faulted_runs += out.tally.faulted_runs;
            for (const RunFault& f : out.tally.faults) {
                if (result.probe_faults.size() >= kMaxRecordedFaults) {
                    break;
                }
                result.probe_faults.push_back(f);
            }
        }

        std::vector<const WorkerContext*> ctx_ptrs;
        for (const WorkerContext& ctx : contexts) {
            ctx_ptrs.push_back(&ctx);
        }
        collect_perf(result, ctx_ptrs);
        result.stats.workers = static_cast<unsigned>(contexts.size());
        result.stats.chunks = outcomes_.size();
        for (const ChunkOutcome& out : outcomes_) {
            result.stats.busy_ms += out.busy_ms;
        }

        if (error) {
            std::rethrow_exception(error);
        }

        if (terminal != kNoTerminal) {
            result.accepted = want_outer_;
            if (existential(0) && result.accepted) {
                result.witness = outer_assignment(terminal);
            }
        } else {
            result.accepted = !want_outer_;
        }
    }

    /// Reconstructs the outer certificate assignment at a linear index.
    CertificateAssignment outer_assignment(std::uint64_t linear) const {
        const auto& table = tables_.layer(0);
        std::vector<BitString> certs(g_.num_nodes());
        for (NodeId u = 0; u < g_.num_nodes(); ++u) {
            const std::uint64_t size = table[u].size();
            certs[u] = table[u][static_cast<std::size_t>(linear % size)];
            linear /= size;
        }
        return CertificateAssignment(std::move(certs));
    }

    /// Accumulates the solve's counters into the session registry under the
    /// `game.` prefix (counters, so repeated solves sum up).
    void record_session_metrics(const GameResult& result) const {
        if (options_.obs == nullptr) {
            return;
        }
        obs::MetricsRegistry& metrics = options_.obs->metrics();
        const GameStats& stats = result.stats;
        metrics.accumulate(
            "game.",
            {
                {"solves", 1.0},
                {"machine_runs", static_cast<double>(result.machine_runs)},
                {"faulted_runs", static_cast<double>(result.faulted_runs)},
                {"leaves_processed", static_cast<double>(stats.leaves_processed)},
                {"local_runs", static_cast<double>(stats.local_runs)},
                {"leaf_cache_hits", static_cast<double>(stats.leaf_cache_hits)},
                {"node_cache_hits", static_cast<double>(stats.node_cache_hits)},
                {"node_cache_misses", static_cast<double>(stats.node_cache_misses)},
                {"cache_evictions", static_cast<double>(stats.cache_evictions)},
                {"chunks", static_cast<double>(stats.chunks)},
                {"wall_ms", stats.wall_ms},
                {"busy_ms", stats.busy_ms},
                {"compile_ms", stats.compile_ms},
                {"orbit_hits", static_cast<double>(stats.orbit_hits)},
                {"packed_words_evaluated",
                 static_cast<double>(stats.packed_words_evaluated)},
                {"partial_leaf_evals",
                 static_cast<double>(stats.partial_leaf_evals)},
                {"ball_runs", static_cast<double>(stats.ball_runs)},
                {"compiled_classes", static_cast<double>(stats.compiled_classes)},
                {"compiled_solves", stats.compiled_classes > 0 ? 1.0 : 0.0},
            });
        metrics.observe("game.workers", static_cast<double>(stats.workers));
        if (pool_used_ != nullptr) {
            // Shared-pool lifetime totals (jobs/tasks/steals), so the gauges
            // reflect the pool's state as of the latest solve.
            metrics.absorb("", pool_used_->stats().to_metrics());
        }
    }

    void collect_perf(GameResult& result,
                      const std::vector<const WorkerContext*>& contexts) {
        for (const WorkerContext* ctx : contexts) {
            result.stats.leaves_processed += ctx->leaves_processed;
            result.stats.local_runs += ctx->local_runs;
            result.stats.leaf_cache_hits += ctx->leaf_cache_hits;
            result.stats.packed_words_evaluated += ctx->packed_words;
            result.stats.partial_leaf_evals += ctx->partial_leaf_evals;
            result.stats.ball_runs += ctx->ball_runs;
        }
    }

    const GameSpec& spec_;
    const GameTables& tables_;
    const LabeledGraph& g_;
    const IdentifierAssignment& id_;
    const GameOptions& options_;
    /// Solve start: set before the constructor compiles, so wall_ms covers
    /// the compile_ms this solve paid.
    const Clock::time_point start_ = Clock::now();

    /// The view-cache keys: the store's builder, or an own one on the
    /// interpreted path; null when nothing is memoized.
    const ViewKeyBuilder* keys_ = nullptr;
    std::unique_ptr<ViewKeyBuilder> owned_keys_;
    std::unique_ptr<ViewCache> owned_cache_;
    ViewCache* cache_ = nullptr;
    ThreadPool* pool_used_ = nullptr;

    // Compiled-backend state (null / empty on the interpreted path).
    const CompiledGameCore* compiled_ = nullptr;
    double compile_ms_paid_ = 0;
    std::mutex ball_mutex_;
    std::vector<std::unique_ptr<const InducedBall>> balls_; ///< per node
    bool packed_ = false;       ///< the deepest layer is scanned 64-wide
    std::size_t deepest_ = 0;   ///< the packed layer (layers - 1)
    std::size_t low_count_ = 0; ///< nodes forming the low block
    std::uint64_t block_ = 1;   ///< leaves per block (>= 64 unless tiny)
    std::size_t words_ = 0;     ///< 64-bit words per pattern
    /// low_strides_[u * low_count_ + v]: stride of digit (v, deepest) in u's
    /// class table, or 0 when v is not one of u's cert members.
    std::vector<std::uint64_t> low_strides_;
    std::vector<std::uint8_t> has_low_;

    bool want_outer_ = true;
    std::vector<ChunkOutcome> outcomes_;
    std::atomic<std::uint64_t> min_terminal_{kNoTerminal};
};

} // namespace

obs::MetricList GameStats::to_metrics() const {
    return {
        {"leaves", static_cast<double>(leaves_processed)},
        {"leaves_per_sec", leaves_per_sec()},
        {"cache_hit_rate", cache_hit_rate()},
        {"leaf_cache_hits", static_cast<double>(leaf_cache_hits)},
        {"local_runs", static_cast<double>(local_runs)},
        {"node_cache_hits", static_cast<double>(node_cache_hits)},
        {"node_cache_misses", static_cast<double>(node_cache_misses)},
        {"cache_evictions", static_cast<double>(cache_evictions)},
        {"workers", static_cast<double>(workers)},
        {"worker_utilization", worker_utilization()},
        {"busy_ms", busy_ms},
        {"chunks", static_cast<double>(chunks)},
        {"compile_ms", compile_ms},
        {"orbit_hits", static_cast<double>(orbit_hits)},
        {"compiled_classes", static_cast<double>(compiled_classes)},
        {"packed_words_evaluated", static_cast<double>(packed_words_evaluated)},
        {"partial_leaf_evals", static_cast<double>(partial_leaf_evals)},
        {"ball_runs", static_cast<double>(ball_runs)},
    };
}

GameResult play_game(const GameSpec& spec, const GameTables& tables,
                     const LabeledGraph& g, const IdentifierAssignment& id,
                     const GameOptions& options) {
    GameSolver solver(spec, tables, g, id, options);
    return solver.run();
}

GameResult play_game(const GameSpec& spec, const LabeledGraph& g,
                     const IdentifierAssignment& id, const GameOptions& options) {
    const GameTables tables(spec, g, id);
    return play_game(spec, tables, g, id, options);
}

std::optional<CertificateAssignment>
find_accepting_certificate(const LocalMachine& verifier,
                           const CertificateDomain& domain, const LabeledGraph& g,
                           const IdentifierAssignment& id,
                           const GameOptions& options) {
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    spec.starts_existential = true;
    GameResult result = play_game(spec, g, id, options);
    if (!result.accepted) {
        return std::nullopt;
    }
    return result.witness;
}

std::uint64_t game_tree_size(const GameSpec& spec, const LabeledGraph& g,
                             const IdentifierAssignment& id) {
    return GameTables(spec, g, id).tree_size();
}

std::uint64_t game_tree_size(const GameTables& tables) {
    return tables.tree_size();
}

} // namespace lph
