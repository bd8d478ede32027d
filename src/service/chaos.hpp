#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace lph {
namespace service {

/// What the chaos layer does to one wire response before it reaches the
/// peer.  At most one action fires per response; the precedence when several
/// channels trip is KillWorker > Drop > Truncate > Garble > Delay — the
/// harsher fault wins, matching how a real incident would present.
enum class ChaosAction {
    None,
    Delay,      ///< hold the response for delay_ms, then send it intact
    Garble,     ///< flip one byte (xor 0xFF), then send
    Truncate,   ///< send only the first half, then drop the connection
    Drop,       ///< send nothing and drop the connection
    KillWorker, ///< _exit() the worker process mid-request
};

const char* to_string(ChaosAction action);

/// Registers the serving layer's differential checks (currently
/// "service-chaos-vs-direct") with the oracle harness registry; idempotent.
/// Called by ServiceCore's constructor so any binary that serves requests can
/// also fuzz itself.
void register_service_checks();

/// Deterministic, seed-replayable wire-level adversary — the transport-layer
/// sibling of the engine's FaultPlan (dtm/faults.hpp).  Every decision is a
/// pure function of (seed, channel, response index) via nested splitmix64
/// (core/rng.hpp), so a chaos run replays identically regardless of worker count or
/// scheduling, and a single seed fully describes the adversary.
///
/// Garbling is xor-with-0xFF by construction: any garbled ASCII byte lands
/// at >= 0x80, which can never be a JSON digit, quote, or a byte of
/// "true"/"false" — so a garbled response can fail to parse or fail
/// validation, but can never be mistaken for a *different valid verdict*.
/// That is what lets the chaos oracle check assert zero incorrect responses
/// rather than merely zero crashes.
struct ChaosPlan {
    std::uint64_t seed = 0;

    double drop_prob = 0.0;     ///< per response: connection cut, no bytes
    double truncate_prob = 0.0; ///< per response: half the bytes, then cut
    double garble_prob = 0.0;   ///< per response: one byte xor 0xFF
    double delay_prob = 0.0;    ///< per response: stalled by delay_ms
    double kill_prob = 0.0;     ///< per response: worker process killed

    double delay_ms = 5.0;

    bool empty() const {
        return drop_prob <= 0 && truncate_prob <= 0 && garble_prob <= 0 &&
               delay_prob <= 0 && kill_prob <= 0;
    }
};

/// Exit status a chaos-killed worker dies with, so the supervisor can tell
/// injected kills from genuine crashes in its log (both restart the worker).
constexpr int kChaosKillExitStatus = 86;

/// Stateless evaluator of a ChaosPlan, usable concurrently; also keeps
/// monotone counters of what actually fired (for logs and metrics).
class ChaosInjector {
public:
    /// A null plan (or nullptr) injects nothing.
    explicit ChaosInjector(const ChaosPlan* plan) : plan_(plan) {}

    bool active() const { return plan_ != nullptr && !plan_->empty(); }

    /// The action for the `index`-th response this process sends.  Pure in
    /// (seed, index); does not bump counters.
    ChaosAction action_for(std::uint64_t index) const;

    /// action_for() on a process-wide response counter, with the chosen
    /// action's counter bumped — the transport hook.
    ChaosAction next_action();

    /// In-place garble: xors the middle byte with 0xFF (no-op on "").
    static void garble(std::string& line);

    double delay_ms() const { return plan_ != nullptr ? plan_->delay_ms : 0; }

    std::uint64_t injected(ChaosAction action) const;
    std::uint64_t responses_seen() const {
        return next_index_.load(std::memory_order_relaxed);
    }

private:
    const ChaosPlan* plan_;
    std::atomic<std::uint64_t> next_index_{0};
    std::atomic<std::uint64_t> delays_{0};
    std::atomic<std::uint64_t> garbles_{0};
    std::atomic<std::uint64_t> truncates_{0};
    std::atomic<std::uint64_t> drops_{0};
    std::atomic<std::uint64_t> kills_{0};
};

} // namespace service
} // namespace lph
