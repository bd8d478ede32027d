#pragma once

// The benchmark's one seeded workload generator.  Graphs come from the
// library's src/graph generators and reach the program only as
// graph_to_text payloads inside wire lines (serve_open, patch_churn) or as
// LabeledGraph instances handed to the public game API (engine_solve).  The
// same seed always yields the same inputs.

#include "core/rng.hpp"
#include "graph/graph.hpp"
#include "hierarchy/game.hpp"
#include "service/registry.hpp"
#include "service/wire.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- serve_open -------------------------------------------------------------

/// One open-loop request: its wire line and when it is due.
struct ServeRequest {
    std::string line;
    std::size_t key = 0; ///< distinct-request index; equal keys = equal lines up to "id"
    double due_s = 0;    ///< offset from the start of the phase
};

struct ServeWorkload {
    /// Played before the measured phase so the memo and view caches hold
    /// the popular keys, as in a daemon that has been up for a while.
    std::vector<ServeRequest> warmup;
    std::vector<ServeRequest> requests;
    /// One line per distinct key (with id 0): what the correctness gate
    /// re-serves on a fresh core.
    std::vector<std::string> distinct_lines;
    /// graph_register lines for the pool: some requests name their graph by
    /// digest instead of carrying it inline.
    std::vector<std::string> register_lines;
};

/// Poisson arrivals at `rate` per second over `warmup_s` then `seconds`
/// (each part's due times start at 0), each request drawn
/// from a Zipf-popular pool of small graphs and a game/logic/eval/decide mix.
/// Lines omit "backend" so the server default is what gets measured.
ServeWorkload make_serve_open(std::uint64_t seed, double rate, double warmup_s,
                              double seconds);

// --- patch_churn ------------------------------------------------------------

/// One op of a resident graph's chain.
struct ChurnOp {
    std::string line;         ///< graph_patch, or a digest-referenced read
    std::string twin;         ///< the full-recompute twin, when asked for
    bool patch = false;
    std::uint64_t digest = 0; ///< the graph's digest after the op
};

/// The seeded op stream over one resident graph of about 200 nodes: a
/// cycle with chords.  A client-side mirror tracks every patch and names
/// the digest the previous op left behind (the wire's own fnv1a64 over
/// graph_to_text), so the chain runs without reading responses.  Chords
/// toggle within a fixed set of candidate pairs, labels flip, and grown nodes hang off the
/// cycle by one edge (removed LIFO), so every query sees a connected graph.
/// The op kinds and their shares (55% chord toggle, 20% relabel, 15% grow,
/// 10% shrink, at most 2 grown nodes) and the read/write interleaving are
/// lph_client --patch's; the graph size is the benchmark's.  The twin of an op is the same query as a plain request carrying the
/// post-op graph inline: what a full recompute answers.
class ChurnStream {
public:
    ChurnStream(std::uint64_t seed, std::size_t index);

    std::string register_line() const;
    ChurnOp next(std::size_t id, bool with_twin);

private:
    lph::service::PatchOp chord_op();
    /// Draws one patch, applies it to the mirror, returns its "ops" array.
    std::string mutate();

    lph::Rng rng_;
    std::size_t base_;
    lph::LabeledGraph mirror_;
    std::uint64_t digest_ = 0;
    std::vector<std::pair<lph::NodeId, lph::NodeId>> chords_; ///< candidate pairs
    std::vector<lph::NodeId> grown_;
};

// --- engine_solve -----------------------------------------------------------

/// One library-level game instance with its expected verdict from an
/// independent decider.
struct EngineInstance {
    std::string kind;     ///< e.g. "coloring2/odd_cycle"
    std::size_t nodes = 0;
    lph::LabeledGraph graph;
    std::size_t spec = 0; ///< index into EngineDeck::games
    bool expected = false;
    /// True when no graphalg decider applies: the check phase takes the
    /// verdict from the src/oracle reference game solver instead.
    bool oracle = false;
};

/// The games the instances refer to, plus the deck: kPasses passes of
/// pass_size instances, each pass one instance of every shape in a seeded
/// order, stored pass after pass.
struct EngineDeck {
    static constexpr std::size_t kPasses = 4;
    std::vector<std::shared_ptr<lph::service::BuiltGame>> games;
    std::vector<EngineInstance> instances;
    std::size_t pass_size = 0;
    const lph::GameSpec& spec_of(const EngineInstance& instance) const;
};

/// A deck of paper instances: 2/3-colouring Sigma_1 games on odd and even
/// cycles, the Fagin two-colourable game, and a 2-layer Sigma_2 game.  The
/// seed picks the node numberings of the no-instances and each pass's
/// order.
EngineDeck make_engine_deck(std::uint64_t seed);

} // namespace perfbench
