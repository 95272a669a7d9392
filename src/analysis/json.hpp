// JSON string literals for the hand-built manifest and lint/sta reports.
#pragma once

#include <string>

namespace emc::analysis {

/// `s` as a quoted JSON string literal: '"', '\\', newline and tab take
/// their short escapes, other control bytes \u00XX, and every other byte
/// (UTF-8 included) passes through.
std::string json_quote(const std::string& s);

}  // namespace emc::analysis
