#include "common/json.hpp"

#include <cmath>
#include <cstdlib>

namespace tempest::json {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void append_utf8(std::string* out, std::uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

void append_json_string(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += "\\u00";
          out->push_back(kHexDigits[(static_cast<unsigned char>(c) >> 4) & 0xF]);
          out->push_back(kHexDigits[static_cast<unsigned char>(c) & 0xF]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string quote(std::string_view s) {
  std::string out;
  append_json_string(&out, s);
  return out;
}

char Reader::peek() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return c;
    ++pos_;
  }
  return '\0';
}

bool Reader::consume(char c) {
  if (peek() != c) return false;
  ++pos_;
  return true;
}

bool Reader::open(char c) {
  if (!consume(c)) return false;
  return ++depth_ <= kMaxDepth;
}

bool Reader::close(char c) {
  if (!consume(c)) return false;
  --depth_;
  return true;
}

bool Reader::string(std::string* out) {
  if (!consume('"')) return false;
  out->clear();
  // Four hex digits at pos_, as a code unit; -1 when malformed.
  const auto code_unit = [&]() -> long {
    if (text_.size() - pos_ < 4) return -1;
    long v = 0;
    for (int i = 0; i < 4; ++i) {
      const int d = hex_value(text_[pos_ + static_cast<std::size_t>(i)]);
      if (d < 0) return -1;
      v = v * 16 + d;
    }
    pos_ += 4;
    return v;
  };
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20) return false;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_++]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        long cp = code_unit();
        if (cp < 0 || (cp >= 0xDC00 && cp < 0xE000)) return false;
        if (cp >= 0xD800 && cp < 0xDC00) {  // a surrogate pair
          if (text_.size() - pos_ < 2 || text_[pos_] != '\\' ||
              text_[pos_ + 1] != 'u') {
            return false;
          }
          pos_ += 2;
          const long low = code_unit();
          if (low < 0xDC00 || low >= 0xE000) return false;
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(out, static_cast<std::uint32_t>(cp));
        break;
      }
      default: return false;
    }
  }
  return false;
}

bool Reader::number(double* out) {
  peek();
  // strtod needs a terminated buffer, and its own grammar is wider than
  // JSON's (hex, inf, nan), so only the JSON number characters are
  // copied, and the number must end at a delimiter. A number too long
  // for the copy is rejected, and so is one that runs to the end of the
  // text, which may have cut it short.
  char buf[64];
  std::size_t n = 0;
  for (;;) {
    if (pos_ + n == text_.size()) return false;
    const char c = text_[pos_ + n];
    if (c == ',' || c == '}' || c == ']' || c == ' ' || c == '\t' ||
        c == '\n' || c == '\r') {
      break;
    }
    if ((c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' &&
        c != 'E') {
      return false;
    }
    if (n + 1 == sizeof buf) return false;
    buf[n++] = c;
  }
  buf[n] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (n == 0 || end != buf + n || !std::isfinite(v)) return false;
  pos_ += n;
  *out = v;
  return true;
}

bool Reader::number(std::uint64_t* out) {
  double v = 0.0;
  if (!number(&v) || v < 0.0 || v >= 0x1p64) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool Reader::skip() {
  switch (peek()) {
    case '{': return object([&](std::string_view) { return skip(); });
    case '[': return array([&] { return skip(); });
    case '"': {
      std::string scratch;
      return string(&scratch);
    }
    case 't':
    case 'f':
    case 'n':
      for (const std::string_view word : {"true", "false", "null"}) {
        if (text_.substr(pos_, word.size()) == word) {
          pos_ += word.size();
          return true;
        }
      }
      return false;
    default: {
      double v = 0.0;
      return number(&v);
    }
  }
}

double NumberFields::get(std::string_view key, double fallback) const {
  for (const auto& [name, value] : members) {
    if (name == key) return value;
  }
  return fallback;
}

NumberFields read_numbers(std::string_view text) {
  NumberFields fields;
  Reader in(text);
  in.object([&](std::string_view key) {
    const char c = in.peek();
    if (c != '-' && (c < '0' || c > '9')) return in.skip();
    double v = 0.0;
    if (!in.number(&v)) return false;
    fields.members.emplace_back(key, v);
    return true;
  });
  return fields;
}

}  // namespace tempest::json
