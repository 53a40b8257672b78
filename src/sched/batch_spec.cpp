#include "sched/batch_spec.h"

#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/options.h"

namespace rrb::sched {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
    throw std::invalid_argument("batch spec line " + std::to_string(line) +
                                ": " + what);
}

std::string_view trim(std::string_view text) {
    while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
        text.remove_prefix(1);
    }
    while (!text.empty() &&
           (text.back() == ' ' || text.back() == '\t' ||
            text.back() == '\r')) {
        text.remove_suffix(1);
    }
    return text;
}

bool safe_name(std::string_view name) {
    if (name.empty()) return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok) return false;
    }
    return true;
}

/// One [scenario] block: its name and the option values its keys set
/// over the option table's defaults.
struct ScenarioBlock {
    std::string name;
    OptionValues values = default_options();
};

}  // namespace

std::vector<BatchItem> parse_batch_spec(const std::string& text) {
    std::vector<ScenarioBlock> blocks;
    std::istringstream stream(text);
    std::string raw;
    std::size_t line_no = 0;
    while (std::getline(stream, raw)) {
        ++line_no;
        const std::string_view line = trim(raw);
        if (line.empty() || line.front() == '#') continue;
        if (line.front() == '[') {
            if (line.back() != ']') fail(line_no, "unterminated '['");
            const std::string_view inner =
                trim(line.substr(1, line.size() - 2));
            constexpr std::string_view kPrefix = "scenario";
            if (inner.substr(0, kPrefix.size()) != kPrefix ||
                inner.size() == kPrefix.size() ||
                (inner[kPrefix.size()] != ' ' &&
                 inner[kPrefix.size()] != '\t')) {
                fail(line_no, "expected [scenario NAME]");
            }
            const std::string_view name = trim(inner.substr(kPrefix.size()));
            if (!safe_name(name)) {
                fail(line_no, "scenario name must be non-empty and use "
                              "only [A-Za-z0-9._-]");
            }
            for (const ScenarioBlock& b : blocks) {
                if (b.name == name) {
                    fail(line_no, "duplicate scenario name '" +
                                      std::string(name) + "'");
                }
            }
            blocks.push_back({std::string(name)});
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos) {
            fail(line_no, "expected 'key = value' or [scenario NAME]");
        }
        if (blocks.empty()) {
            fail(line_no, "key outside any [scenario] block");
        }
        try {
            apply_spec_key(blocks.back().values,
                                trim(line.substr(0, eq)),
                                trim(line.substr(eq + 1)));
        } catch (const std::invalid_argument& e) {
            fail(line_no, e.what());
        }
    }
    if (blocks.empty()) {
        throw std::invalid_argument(
            "batch spec declares no [scenario] blocks");
    }

    std::vector<BatchItem> items;
    items.reserve(blocks.size());
    for (ScenarioBlock& block : blocks) {
        BatchItem item = build_pwcet_campaign(block.values);
        item.name = std::move(block.name);
        items.push_back(std::move(item));
    }
    return items;
}

}  // namespace rrb::sched
