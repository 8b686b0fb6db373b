// JSON text: the one string writer and the one reader the tools share.
//
// The report, export, diff, lint, audit and collector writers escape
// strings through append_json_string, and what the tools read back —
// /profile bodies, heartbeat lines from a file or a TCP peer, the /top
// aggregate — goes through Reader. The reader is a pull cursor over a
// string_view: it never reads past the view, decodes every string
// escape, converts numbers from a bounded copy, and treats nesting
// deeper than Reader::kMaxDepth as a syntax error, so a hostile 8 MiB
// run of '[' costs one bounded scan, not a stack overflow. Members read
// before the first syntax error stay read: callers keep what a
// truncated or corrupted line delivered up to the damage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tempest::json {

/// Append `s` as a JSON string literal: surrounding quotes, quotes and
/// backslashes escaped, control characters as \n, \t or \u00XX, every
/// other byte verbatim.
void append_json_string(std::string* out, std::string_view s);

/// `s` as a JSON string literal, for writers that build on a stream.
std::string quote(std::string_view s);

/// Pull reader over one JSON text. Each read consumes one value at the
/// cursor and returns false on a syntax error; after a false return the
/// reader must not be used again.
class Reader {
 public:
  static constexpr int kMaxDepth = 64;

  explicit Reader(std::string_view text) : text_(text) {}

  /// Next non-whitespace character without consuming it; '\0' at the
  /// end of the text.
  char peek();

  /// Read an object. `on_member(key)` runs for every member with the
  /// cursor on its value, must consume that value, and returns false to
  /// stop with an error.
  template <typename F>
  bool object(F&& on_member) {
    if (!open('{')) return false;
    if (close('}')) return true;
    std::string key;
    do {
      if (!string(&key) || !consume(':') || !on_member(std::string_view(key))) {
        return false;
      }
    } while (consume(','));
    return close('}');
  }

  /// Read an array; `on_element()` consumes each element.
  template <typename F>
  bool array(F&& on_element) {
    if (!open('[')) return false;
    if (close(']')) return true;
    do {
      if (!on_element()) return false;
    } while (consume(','));
    return close(']');
  }

  bool string(std::string* out);
  /// A finite number, ended by a delimiter: one that runs to the end
  /// of the text may have been cut short.
  bool number(double* out);
  /// A number in [0, 2^64), truncated toward zero.
  bool number(std::uint64_t* out);
  /// Consume any value.
  bool skip();

 private:
  bool consume(char c);
  bool open(char c);
  bool close(char c);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// The numeric members of one flat object, in text order.
struct NumberFields {
  std::vector<std::pair<std::string, double>> members;

  /// The first member named `key`; `fallback` when there is none.
  double get(std::string_view key, double fallback = 0.0) const;
};

/// Read the numeric members of the object in `text`, skipping members
/// of any other type. Stops at the first syntax error and keeps what it
/// read before it.
NumberFields read_numbers(std::string_view text);

}  // namespace tempest::json
