#include "engine/reduce.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace rrb::engine {

void PwcetKind::validate() const {
    RRB_REQUIRE(block_size >= 1, "block size must be positive");
    for (const double e : exceedance) {
        RRB_REQUIRE(e > 0.0 && e < 1.0, "exceedance probability in (0,1)");
    }
}

PwcetCampaignResult PwcetKind::finalize(const PwcetAccumulator& acc,
                                        Cycle et_isolation,
                                        std::uint64_t nr) const {
    RRB_REQUIRE(!acc.extremes().empty(),
                "cannot finalize a campaign with no observations");
    PwcetCampaignResult result;
    result.et_isolation = et_isolation;
    result.nr = nr;
    result.runs = static_cast<std::size_t>(acc.extremes().count());
    result.high_water_mark = acc.extremes().max();
    result.low_water_mark = acc.extremes().min();
    result.mean = acc.moments().mean();
    result.stddev = acc.moments().stddev();
    result.blocks = acc.blocks().complete_blocks();
    result.live_values = acc.blocks().live_values();
    result.fit = acc.blocks().fit();
    result.quantiles.reserve(exceedance.size());
    for (const double e : exceedance) {
        // pwcet() yields NaN on a degenerate fit's behalf only for bad p;
        // an invalid fit (too few blocks / zero spread) is still a valid
        // extrapolation-free row, so quote NaN explicitly there too.
        result.quantiles.push_back(
            {e, result.fit.valid()
                    ? result.fit.pwcet(e)
                    : std::numeric_limits<double>::quiet_NaN()});
    }
    return result;
}

HwmCampaignResult HwmKind::finalize(ExecTimes acc, Cycle et_isolation,
                                    std::uint64_t nr) {
    RRB_REQUIRE(!acc.values.empty(),
                "cannot finalize a campaign with no observations");
    HwmCampaignResult result;
    result.et_isolation = et_isolation;
    result.nr = nr;
    const auto [lwm, hwm] =
        std::minmax_element(acc.values.begin(), acc.values.end());
    result.high_water_mark = *hwm;
    result.low_water_mark = *lwm;
    result.exec_times = std::move(acc.values);
    return result;
}

}  // namespace rrb::engine
