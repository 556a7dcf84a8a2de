#include "runtime/canonical_json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/hash.h"

namespace paradet::runtime::json {

// --- Writers ---------------------------------------------------------------

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_i64(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}

void append_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "\"nan\"";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "\"inf\"" : "\"-inf\"";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// --- Document model --------------------------------------------------------

const Json* Json::find(std::string_view key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  if (kind != Kind::kObject) {
    throw std::runtime_error("expected a JSON object around field '" +
                             std::string(key) + "'");
  }
  if (const Json* value = find(key)) return *value;
  throw std::runtime_error("missing field '" + std::string(key) + "'");
}

bool Json::as_bool() const {
  if (kind != Kind::kBool) throw std::runtime_error("expected a boolean");
  return boolean;
}

std::uint64_t Json::as_u64() const {
  if (kind != Kind::kNumber) throw std::runtime_error("expected a number");
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::runtime_error("not an unsigned integer: " + text);
  }
  return v;
}

std::int64_t Json::as_i64() const {
  if (kind != Kind::kNumber) throw std::runtime_error("expected a number");
  std::int64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::runtime_error("not an integer: " + text);
  }
  return v;
}

double Json::as_double() const {
  if (kind == Kind::kString) {
    if (text == "inf") return std::numeric_limits<double>::infinity();
    if (text == "-inf") return -std::numeric_limits<double>::infinity();
    if (text == "nan") return std::numeric_limits<double>::quiet_NaN();
    throw std::runtime_error("not a number: \"" + text + "\"");
  }
  if (kind != Kind::kNumber) throw std::runtime_error("expected a number");
  double v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::runtime_error("not a double: " + text);
  }
  return v;
}

const std::string& Json::as_string() const {
  if (kind != Kind::kString) throw std::runtime_error("expected a string");
  return text;
}

const std::vector<Json>& Json::as_array() const {
  if (kind != Kind::kArray) throw std::runtime_error("expected an array");
  return items;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  unsigned depth_ = 0;
  /// Artifacts nest ~6 deep; anything deeper is corrupt or hostile input,
  /// rejected as a catchable error instead of recursing the stack away.
  static constexpr unsigned kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        return;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        Json v;
        v.kind = Json::Kind::kString;
        v.text = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        const bool value = c == 't';
        if (!consume_literal(value ? "true" : "false")) fail("bad literal");
        Json v;
        v.kind = Json::Kind::kBool;
        v.boolean = value;
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json{};
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    Json v;
    v.kind = Json::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.fields.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return v;
    }
  }

  Json parse_array() {
    expect('[');
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    Json v;
    v.kind = Json::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // The writer only emits \u00xx; decode the BMP generally anyway.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool digits = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        digits = digits || (c >= '0' && c <= '9');
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) fail("expected a value");
    Json v;
    v.kind = Json::Kind::kNumber;
    v.text = std::string(text_.substr(start, pos_ - start));
    return v;
  }
};

}  // namespace

Json parse(std::string_view text) { return Parser(text).parse_document(); }

// --- Checksummed line framing ----------------------------------------------

std::string checksum_line(std::string_view payload) {
  static const char* kHex = "0123456789abcdef";
  const std::uint64_t sum = fnv1a64(payload);
  std::string line;
  line.reserve(payload.size() + 18);
  for (int shift = 60; shift >= 0; shift -= 4) {
    line += kHex[(sum >> shift) & 0xF];
  }
  line += ' ';
  line += payload;
  line += '\n';
  return line;
}

bool parse_checksum_prefix(std::string_view line, std::uint64_t* sum) {
  if (line.size() < 17 || line[16] != ' ') return false;
  std::uint64_t value = 0;
  for (int i = 0; i < 16; ++i) {
    const char h = line[static_cast<std::size_t>(i)];
    value <<= 4;
    if (h >= '0' && h <= '9') {
      value |= static_cast<std::uint64_t>(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      value |= static_cast<std::uint64_t>(h - 'a' + 10);
    } else {
      return false;
    }
  }
  *sum = value;
  return true;
}

// --- File helpers -----------------------------------------------------------

std::string read_whole_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open '" + path +
                             "': " + std::strerror(errno));
  }
  std::string text;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw std::runtime_error("error reading '" + path + "'");
  }
  return text;
}

bool exists_or_throw(const std::string& path) {
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return true;
  }
  if (errno == ENOENT) return false;
  throw std::runtime_error("cannot open '" + path +
                           "': " + std::strerror(errno));
}

}  // namespace paradet::runtime::json
