#include "service/chaos.hpp"

#include "core/rng.hpp"

namespace lph {
namespace service {

namespace {

/// Pure decision value for one (seed, channel, index) tuple — the same
/// splitmix64 nesting as the engine's FaultInjector, so one seeding
/// convention covers both adversaries.
std::uint64_t decide(std::uint64_t seed, std::uint64_t channel,
                     std::uint64_t index) {
    return splitmix64(splitmix64(seed ^ channel) ^ index);
}

bool chance(std::uint64_t h, double p) {
    if (p <= 0) {
        return false;
    }
    if (p >= 1) {
        return true;
    }
    return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

// Decision channels; distinct constants keep the chaos kinds independent.
constexpr std::uint64_t kKill = 0xc1;
constexpr std::uint64_t kDrop = 0xc2;
constexpr std::uint64_t kTruncate = 0xc3;
constexpr std::uint64_t kGarble = 0xc4;
constexpr std::uint64_t kDelay = 0xc5;

} // namespace

const char* to_string(ChaosAction action) {
    switch (action) {
    case ChaosAction::None: return "none";
    case ChaosAction::Delay: return "delay";
    case ChaosAction::Garble: return "garble";
    case ChaosAction::Truncate: return "truncate";
    case ChaosAction::Drop: return "drop";
    case ChaosAction::KillWorker: return "kill_worker";
    }
    return "unknown";
}

ChaosAction ChaosInjector::action_for(std::uint64_t index) const {
    if (!active()) {
        return ChaosAction::None;
    }
    if (chance(decide(plan_->seed, kKill, index), plan_->kill_prob)) {
        return ChaosAction::KillWorker;
    }
    if (chance(decide(plan_->seed, kDrop, index), plan_->drop_prob)) {
        return ChaosAction::Drop;
    }
    if (chance(decide(plan_->seed, kTruncate, index), plan_->truncate_prob)) {
        return ChaosAction::Truncate;
    }
    if (chance(decide(plan_->seed, kGarble, index), plan_->garble_prob)) {
        return ChaosAction::Garble;
    }
    if (chance(decide(plan_->seed, kDelay, index), plan_->delay_prob)) {
        return ChaosAction::Delay;
    }
    return ChaosAction::None;
}

ChaosAction ChaosInjector::next_action() {
    const std::uint64_t index =
        next_index_.fetch_add(1, std::memory_order_relaxed);
    const ChaosAction action = action_for(index);
    switch (action) {
    case ChaosAction::Delay:
        delays_.fetch_add(1, std::memory_order_relaxed);
        break;
    case ChaosAction::Garble:
        garbles_.fetch_add(1, std::memory_order_relaxed);
        break;
    case ChaosAction::Truncate:
        truncates_.fetch_add(1, std::memory_order_relaxed);
        break;
    case ChaosAction::Drop:
        drops_.fetch_add(1, std::memory_order_relaxed);
        break;
    case ChaosAction::KillWorker:
        kills_.fetch_add(1, std::memory_order_relaxed);
        break;
    case ChaosAction::None:
        break;
    }
    return action;
}

void ChaosInjector::garble(std::string& line) {
    if (!line.empty()) {
        line[line.size() / 2] =
            static_cast<char>(line[line.size() / 2] ^ '\xff');
    }
}

std::uint64_t ChaosInjector::injected(ChaosAction action) const {
    switch (action) {
    case ChaosAction::Delay: return delays_.load(std::memory_order_relaxed);
    case ChaosAction::Garble: return garbles_.load(std::memory_order_relaxed);
    case ChaosAction::Truncate:
        return truncates_.load(std::memory_order_relaxed);
    case ChaosAction::Drop: return drops_.load(std::memory_order_relaxed);
    case ChaosAction::KillWorker:
        return kills_.load(std::memory_order_relaxed);
    case ChaosAction::None: return 0;
    }
    return 0;
}

} // namespace service
} // namespace lph
