#include "service/supervisor.hpp"

#include "core/check.hpp"
#include "core/rng.hpp"

#include <algorithm>

namespace lph {
namespace service {

SupervisorLedger::SupervisorLedger(std::size_t workers, RestartPolicy policy)
    : policy_(policy), slots_(workers) {
    check(workers > 0, "supervisor needs at least one worker slot");
    check(policy_.base_backoff_ms > 0 &&
              policy_.max_backoff_ms >= policy_.base_backoff_ms,
          "restart backoff must satisfy 0 < base <= max");
    check(policy_.max_consecutive_crashes > 0,
          "the circuit breaker threshold must be positive");
}

void SupervisorLedger::on_started(std::size_t i, double now_ms) {
    Slot& slot = slots_.at(i);
    check(slot.state != SlotState::GivenUp,
          "started a worker slot the breaker had given up");
    slot.state = SlotState::Running;
    ++slot.generation;
    slot.restarts = slot.generation - 1;
    slot.started_at_ms = now_ms;
}

bool SupervisorLedger::on_exit(std::size_t i, double now_ms, bool clean) {
    Slot& slot = slots_.at(i);
    const double uptime_ms = now_ms - slot.started_at_ms;
    if (clean) {
        slot.consecutive_crashes = 0;
        slot.state = SlotState::GivenUp; // clean exit: nothing to restart
        return false;
    }
    if (uptime_ms >= policy_.min_healthy_uptime_ms) {
        // A healthy life forgives earlier crashes: backoff starts over.
        slot.consecutive_crashes = 0;
    }
    ++slot.consecutive_crashes;
    if (slot.consecutive_crashes > policy_.max_consecutive_crashes) {
        slot.state = SlotState::GivenUp;
        return false;
    }
    slot.state = SlotState::BackingOff;
    slot.restart_at_ms = now_ms + backoff_ms(slot);
    return true;
}

double SupervisorLedger::backoff_ms(const Slot& slot) const {
    double ceiling = policy_.base_backoff_ms;
    for (int i = 1; i < slot.consecutive_crashes &&
                    ceiling < policy_.max_backoff_ms;
         ++i) {
        ceiling *= 2;
    }
    ceiling = std::min(ceiling, policy_.max_backoff_ms);
    // Jitter in [0.5, 1.5): desynchronizes a pool that crashed together
    // without ever collapsing the delay to zero.
    const std::uint64_t h =
        splitmix64(splitmix64(policy_.jitter_seed ^ 0x5afe) ^
                   (slot.generation * 131 +
                    static_cast<std::uint64_t>(slot.consecutive_crashes)));
    const double jitter = 0.5 + static_cast<double>(h >> 11) * 0x1.0p-53;
    return ceiling * jitter;
}

int SupervisorLedger::due_slot(double now_ms) const {
    int best = -1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot& slot = slots_[i];
        if (slot.state == SlotState::BackingOff &&
            slot.restart_at_ms <= now_ms &&
            (best < 0 ||
             slot.restart_at_ms <
                 slots_[static_cast<std::size_t>(best)].restart_at_ms)) {
            best = static_cast<int>(i);
        }
    }
    return best;
}

double SupervisorLedger::next_deadline_ms() const {
    double earliest = -1;
    for (const Slot& slot : slots_) {
        if (slot.state == SlotState::BackingOff &&
            (earliest < 0 || slot.restart_at_ms < earliest)) {
            earliest = slot.restart_at_ms;
        }
    }
    return earliest;
}

std::size_t SupervisorLedger::running() const {
    std::size_t n = 0;
    for (const Slot& slot : slots_) {
        n += slot.state == SlotState::Running ? 1 : 0;
    }
    return n;
}

std::size_t SupervisorLedger::given_up() const {
    std::size_t n = 0;
    for (const Slot& slot : slots_) {
        n += slot.state == SlotState::GivenUp ? 1 : 0;
    }
    return n;
}

std::uint64_t SupervisorLedger::total_restarts() const {
    std::uint64_t n = 0;
    for (const Slot& slot : slots_) {
        n += slot.restarts;
    }
    return n;
}

} // namespace service
} // namespace lph
