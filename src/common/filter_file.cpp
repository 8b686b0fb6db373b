#include "common/filter_file.hpp"

#include <algorithm>
#include <fstream>

#include "common/byte_input.hpp"

namespace tempest::common {
namespace {

constexpr const char* kVersionLine = "# TEMPEST_FILTER v1";
constexpr std::string_view kBlank = " \t\r";        // what trim strips
constexpr std::string_view kSpace = " \t\n\v\f\r";  // what separates fields

/// Strip leading/trailing spaces, tabs and carriage returns: a CRLF
/// file parses as its LF copy does.
std::string_view trim(std::string_view s) {
  const std::size_t first = s.find_first_not_of(kBlank);
  if (first == std::string_view::npos) return {};
  return s.substr(first, s.find_last_not_of(kBlank) - first + 1);
}

/// The next whitespace-separated field of `*rest`, which then starts
/// just past it; empty when no field is left.
std::string_view next_field(std::string_view* rest) {
  const std::size_t first = rest->find_first_not_of(kSpace);
  if (first == std::string_view::npos) return *rest = {};
  const std::size_t end = std::min(rest->find_first_of(kSpace, first), rest->size());
  const std::string_view field = rest->substr(first, end - first);
  rest->remove_prefix(end);
  return field;
}

}  // namespace

void write_filter_file(std::ostream& out, const FilterFile& filter) {
  out << kVersionLine << "\n";
  for (const FilterRule& rule : filter.rules) {
    out << "suppress " << rule.symbol;
    if (!rule.reason.empty()) out << "  # " << rule.reason;
    out << "\n";
  }
}

Status write_filter_file(const std::string& path, const FilterFile& filter) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::error("cannot write filter file " + path);
  write_filter_file(out, filter);
  out.flush();
  if (!out) return Status::error("write failed for filter file " + path);
  return Status::ok();
}

Result<FilterFile> parse_filter_file(std::string_view text) {
  FilterFile filter;
  for (std::size_t line_no = 1; !text.empty(); ++line_no) {
    const std::size_t eol = std::min(text.find('\n'), text.size());
    std::string_view fields = trim(text.substr(0, eol));
    text.remove_prefix(std::min(eol + 1, text.size()));
    if (fields.empty() || fields[0] == '#') continue;

    const std::string_view directive = next_field(&fields);
    if (directive != "suppress") {
      return Result<FilterFile>::error("filter line " + std::to_string(line_no) +
                                       ": unknown directive '" + std::string(directive) +
                                       "'");
    }
    FilterRule rule;
    rule.symbol = next_field(&fields);
    if (rule.symbol.empty() || rule.symbol[0] == '#') {
      return Result<FilterFile>::error("filter line " + std::to_string(line_no) +
                                       ": suppress needs a symbol name");
    }
    const std::size_t hash = fields.find('#');
    if (hash != std::string_view::npos) rule.reason = trim(fields.substr(hash + 1));
    filter.rules.push_back(std::move(rule));
  }
  return filter;
}

Result<FilterFile> read_filter_file(const std::string& path) {
  const ByteInput in(path, "cannot open filter file " + path);
  if (!in.opened()) return Result<FilterFile>::error(in.opened().message());
  if (in.size() > kMaxFilterFileBytes) {
    return Result<FilterFile>::error(path + ": filter file larger than " +
                                     std::to_string(kMaxFilterFileBytes >> 20) + " MiB");
  }
  std::string text(static_cast<std::size_t>(in.size()), '\0');
  const Status read = in.read(0, text.size(), text.data());
  if (!read) return Result<FilterFile>::error(path + ": " + read.message());
  return parse_filter_file(text);
}

}  // namespace tempest::common
