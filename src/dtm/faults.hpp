#pragma once

#include "dtm/errors.hpp"
#include "graph/certificates.hpp"
#include "graph/identifiers.hpp"

#include <cstdint>
#include <string>

namespace lph {

/// Deterministic, seed-replayable adversarial fault model for the runners.
///
/// Every decision is a pure function of (seed, kind, round, node, slot) via
/// nested splitmix64 (core/rng.hpp) — there is no shared random stream — so a plan
/// replays identically regardless of how a runner iterates, and a single
/// seed fully describes an adversary for a bug report.
///
/// The knobs mirror the paper's adversarial quantifiers: crash-stops and
/// message faults model misbehaving machines, while the perturbation helpers
/// below attack the identifier and certificate inputs that Theorems quantify
/// over ("for every locally unique identifier assignment", "for every
/// certificate Adam plays").
struct FaultPlan {
    std::uint64_t seed = 0;

    /// Per node per round: the node crash-stops at the start of the round
    /// (it stops computing and sending; an unset verdict reads as reject).
    double crash_prob = 0.0;

    /// Per delivered message per round: the message is replaced by "".
    double drop_prob = 0.0;

    /// Per delivered message per round: the message loses its second half.
    double truncate_prob = 0.0;

    /// Per delivered message per round: one position is overwritten with a
    /// flipped bit (tape-level runs stay within the alphabet; the corruption
    /// is still adversarial because the *content* changes).
    double corrupt_prob = 0.0;

    /// When false, injected faults are applied silently (pure adversary);
    /// when true (default) each application is recorded on the result.
    bool record_injected = true;

    bool any_message_faults() const {
        return drop_prob > 0 || truncate_prob > 0 || corrupt_prob > 0;
    }
    bool empty() const { return crash_prob <= 0 && !any_message_faults(); }
};

/// Stateless evaluator of a FaultPlan, usable concurrently.
class FaultInjector {
public:
    /// A null plan (or nullptr) injects nothing.
    explicit FaultInjector(const FaultPlan* plan) : plan_(plan) {}

    bool active() const { return plan_ != nullptr && !plan_->empty(); }
    bool recording() const { return active() && plan_->record_injected; }

    /// True when `node` crash-stops at the start of `round`.
    bool crashes(NodeId node, int round) const;

    /// Mutates one in-flight message; returns the fault applied
    /// (RunError::None when the message passes through untouched).
    RunError mutate_message(std::string& message, int round, NodeId sender,
                            std::size_t slot) const;

private:
    const FaultPlan* plan_;
};

/// In-model identifier attack: a *valid* r_id-locally-unique assignment the
/// adversary is free to pick, built greedily in a seeded node order.  A
/// correct machine must produce the same decision under every such
/// assignment (the paper's "for any locally unique identifier assignment").
IdentifierAssignment adversarial_local_ids(const LabeledGraph& g, int r_id,
                                           std::uint64_t seed);

/// Out-of-model identifier attack: with probability `clash_prob` per node,
/// copies a nearby node's identifier, breaking local uniqueness at
/// `radius`.  Runners must detect this as RunError::IdentifierClash.
IdentifierAssignment clash_identifiers(const LabeledGraph& g,
                                       const IdentifierAssignment& id, int radius,
                                       std::uint64_t seed, double clash_prob);

/// Certificate attack: with probability `victim_prob` per node, splices a
/// byte outside the {0,1,#} certificate alphabet into that node's list.
/// Runners must detect this as RunError::MalformedCertificate.
CertificateListAssignment malform_certificates(const CertificateListAssignment& certs,
                                               std::uint64_t seed,
                                               double victim_prob);

} // namespace lph
