#include "service/retry.hpp"

#include "core/rng.hpp"

#include <algorithm>

namespace lph {
namespace service {

double backoff_delay_ms(const RetryPolicy& policy, std::uint64_t request_index,
                        int attempt) {
    const int exponent = std::max(0, attempt - 1);
    double ceiling = policy.base_backoff_ms;
    for (int i = 0; i < exponent && ceiling < policy.max_backoff_ms; ++i) {
        ceiling *= 2;
    }
    ceiling = std::min(ceiling, policy.max_backoff_ms);
    if (ceiling <= 0) {
        return 0;
    }
    const std::uint64_t h =
        splitmix64(splitmix64(policy.seed ^ 0xbac0ffULL) ^
                   splitmix64(request_index * 31 +
                              static_cast<std::uint64_t>(attempt)));
    return static_cast<double>(h >> 11) * 0x1.0p-53 * ceiling;
}

obs::MetricList RetryStats::to_metrics() const {
    return {
        {"retry.sent", static_cast<double>(sent)},
        {"retry.retries", static_cast<double>(retries)},
        {"retry.redelivered", static_cast<double>(redelivered)},
        {"retry.abandoned", static_cast<double>(abandoned)},
        {"retry.reconnects", static_cast<double>(reconnects)},
    };
}

} // namespace service
} // namespace lph
