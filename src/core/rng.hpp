#pragma once

#include "core/check.hpp"

#include <cstdint>
#include <random>

namespace lph {

/// splitmix64's Weyl-sequence increment: 2^64 divided by the golden ratio,
/// rounded to odd.
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// Stateless splitmix64: the output a generator in state `x` produces next
/// (advance by the gamma, then the variant-13 avalanche mix).  A pure,
/// bijective hash — the fault, chaos and backoff streams are nested calls
/// of it over (seed, channel, index) tuples, so no stream is shared.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
    std::uint64_t z = x + kSplitMix64Gamma;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Stateful splitmix64: advances `state` and returns the next output.
/// From state 0 the first draws are 0xe220a8397b1dcdaf,
/// 0x6e789e6aa1b965f4, 0x06c45d188009454f.
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
    const std::uint64_t out = splitmix64(state);
    state += kSplitMix64Gamma;
    return out;
}

/// Deterministic pseudo-random source used by generators and benchmarks.
///
/// Everything in this library that is randomized takes an explicit Rng so
/// experiments are reproducible run to run.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
    std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
        check(lo <= hi, "Rng::uniform: empty range (lo > hi)");
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
    }

    /// Uniform index in [0, n); requires n > 0.  An empty range used to
    /// underflow to uniform(0, 2^64-1) and return garbage indices; it now
    /// fails the precondition check instead.
    std::size_t index(std::size_t n) {
        check(n > 0, "Rng::index: empty range (n == 0)");
        return static_cast<std::size_t>(uniform(0, static_cast<std::uint64_t>(n) - 1));
    }

    /// Bernoulli draw with probability p of true.
    bool chance(double p) { return std::bernoulli_distribution(p)(engine_); }

    std::mt19937_64& engine() { return engine_; }

private:
    std::mt19937_64 engine_;
};

} // namespace lph
