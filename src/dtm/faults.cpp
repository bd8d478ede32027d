#include "dtm/faults.hpp"

#include "core/rng.hpp"

#include <algorithm>
#include <numeric>

namespace lph {

namespace {

/// Pure decision value for one (seed, kind, a, b, c) tuple.
std::uint64_t decide(std::uint64_t seed, std::uint64_t kind, std::uint64_t a,
                     std::uint64_t b, std::uint64_t c) {
    return splitmix64(splitmix64(splitmix64(splitmix64(seed ^ kind) ^ a) ^ b) ^
                      c);
}

/// Maps a decision value to [0,1) and compares against the probability.
bool chance(std::uint64_t h, double p) {
    if (p <= 0) {
        return false;
    }
    if (p >= 1) {
        return true;
    }
    return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

// Decision kinds; distinct constants keep the fault channels independent.
constexpr std::uint64_t kCrash = 0x11;
constexpr std::uint64_t kDrop = 0x22;
constexpr std::uint64_t kTruncate = 0x33;
constexpr std::uint64_t kCorrupt = 0x44;
constexpr std::uint64_t kCorruptPos = 0x55;
constexpr std::uint64_t kOrder = 0x66;
constexpr std::uint64_t kClash = 0x77;
constexpr std::uint64_t kClashPick = 0x88;
constexpr std::uint64_t kMalform = 0x99;
constexpr std::uint64_t kMalformPos = 0xaa;

} // namespace

bool FaultInjector::crashes(NodeId node, int round) const {
    if (!active()) {
        return false;
    }
    return chance(decide(plan_->seed, kCrash, node, static_cast<std::uint64_t>(round), 0),
                  plan_->crash_prob);
}

RunError FaultInjector::mutate_message(std::string& message, int round, NodeId sender,
                                       std::size_t slot) const {
    if (!active() || !plan_->any_message_faults() || message.empty()) {
        return RunError::None;
    }
    const std::uint64_t r = static_cast<std::uint64_t>(round);
    if (chance(decide(plan_->seed, kDrop, r, sender, slot), plan_->drop_prob)) {
        message.clear();
        return RunError::MessageDropped;
    }
    if (chance(decide(plan_->seed, kTruncate, r, sender, slot),
               plan_->truncate_prob)) {
        message.erase(message.size() / 2);
        return RunError::MessageTruncated;
    }
    if (chance(decide(plan_->seed, kCorrupt, r, sender, slot), plan_->corrupt_prob)) {
        const std::size_t pos =
            decide(plan_->seed, kCorruptPos, r, sender, slot) % message.size();
        message[pos] = message[pos] == '0' ? '1' : '0';
        return RunError::MessageCorrupted;
    }
    return RunError::None;
}

IdentifierAssignment adversarial_local_ids(const LabeledGraph& g, int r_id,
                                           std::uint64_t seed) {
    g.validate();
    check(r_id >= 1, "adversarial_local_ids: r_id must be at least 1");
    const std::size_t n = g.num_nodes();

    // Seeded Fisher-Yates over the node order (own hash, not std::shuffle,
    // so replays are identical across standard libraries).
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), NodeId{0});
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = decide(seed, kOrder, i, 0, 0) % i;
        std::swap(order[i - 1], order[j]);
    }

    // Greedy least-unused-within-2*r_id assignment (Remark 1), in the seeded
    // order: a different but equally valid adversary every seed.
    constexpr std::uint64_t kUnassigned = static_cast<std::uint64_t>(-1);
    std::vector<std::uint64_t> value(n, kUnassigned);
    for (NodeId u : order) {
        std::vector<std::uint64_t> taken;
        for (NodeId v : g.ball(u, 2 * r_id)) {
            if (v != u && value[v] != kUnassigned) {
                taken.push_back(value[v]);
            }
        }
        std::sort(taken.begin(), taken.end());
        std::uint64_t candidate = 0;
        for (std::uint64_t t : taken) {
            if (t == candidate) {
                ++candidate;
            } else if (t > candidate) {
                break;
            }
        }
        value[u] = candidate;
    }

    std::vector<BitString> ids(n);
    for (NodeId u = 0; u < n; ++u) {
        ids[u] = encode_unsigned(value[u]);
    }
    return IdentifierAssignment(std::move(ids));
}

IdentifierAssignment clash_identifiers(const LabeledGraph& g,
                                       const IdentifierAssignment& id, int radius,
                                       std::uint64_t seed, double clash_prob) {
    check(id.size() == g.num_nodes(), "clash_identifiers: assignment size");
    check(radius >= 1, "clash_identifiers: radius must be at least 1");
    IdentifierAssignment out = id;
    // Once a node joins a clash pair it is pinned: neither endpoint may be
    // re-assigned by a later iteration, or a chain of copies could collapse
    // into a clash-free permutation and defeat the injection.
    std::vector<char> pinned(g.num_nodes(), 0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (pinned[u] || !chance(decide(seed, kClash, u, 0, 0), clash_prob)) {
            continue;
        }
        std::vector<NodeId> nearby;
        for (NodeId v : g.ball(u, 2 * radius)) {
            if (v != u) {
                nearby.push_back(v);
            }
        }
        if (nearby.empty()) {
            continue;
        }
        const NodeId victim =
            nearby[decide(seed, kClashPick, u, 0, 0) % nearby.size()];
        out.set(u, out(victim));
        pinned[u] = 1;
        pinned[victim] = 1;
    }
    return out;
}

CertificateListAssignment malform_certificates(const CertificateListAssignment& certs,
                                               std::uint64_t seed,
                                               double victim_prob) {
    std::vector<std::string> lists(certs.size());
    for (NodeId u = 0; u < certs.size(); ++u) {
        std::string s = certs(u);
        if (chance(decide(seed, kMalform, u, 0, 0), victim_prob)) {
            const std::size_t pos =
                s.empty() ? 0 : decide(seed, kMalformPos, u, 0, 0) % (s.size() + 1);
            s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos), 'x');
        }
        lists[u] = std::move(s);
    }
    return CertificateListAssignment::from_raw(std::move(lists), certs.layers());
}

} // namespace lph
