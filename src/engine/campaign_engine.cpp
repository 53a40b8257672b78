#include "engine/campaign_engine.h"

#include <algorithm>

namespace rrb::engine {

std::size_t effective_jobs(std::size_t requested,
                           std::size_t work_items) noexcept {
    const std::size_t jobs =
        requested == 0 ? ThreadPool::default_jobs() : requested;
    return std::max<std::size_t>(1, std::min(jobs, work_items));
}

}  // namespace rrb::engine
