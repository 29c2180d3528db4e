#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace disp {

namespace {

[[noreturn]] void parseFail(std::size_t offset, const std::string& why) {
  throw std::runtime_error("JSON parse error at byte " + std::to_string(offset) +
                           ": " + why);
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  void skipWs() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) parseFail(pos, "unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (pos >= text.size() || text[pos] != c) {
      parseFail(pos, std::string("expected '") + c + "'");
    }
    ++pos;
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view w) {
    if (text.substr(pos, w.size()) == w) {
      pos += w.size();
      return true;
    }
    return false;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) parseFail(pos, "unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        parseFail(pos - 1, "raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) parseFail(pos, "unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) parseFail(pos, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else parseFail(pos - 1, "bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by any writer in this repo; reject rather than mangle).
          if (code >= 0xd800 && code <= 0xdfff) {
            parseFail(pos - 6, "surrogate \\u escapes are unsupported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          parseFail(pos - 1, std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos;
    if (consume('-')) {}
    if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
      parseFail(pos, "malformed number");
    }
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    if (consume('.')) {
      if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
        parseFail(pos, "malformed number (no digits after '.')");
      }
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
        parseFail(pos, "malformed number (empty exponent)");
      }
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    return JsonValue::number(std::strtod(token.c_str(), nullptr));
  }

  JsonValue parseValue(int depth) {
    if (depth > 64) parseFail(pos, "nesting too deep");
    skipWs();
    const char c = peek();
    if (c == '{') {
      ++pos;
      JsonValue obj = JsonValue::object();
      skipWs();
      if (consume('}')) return obj;
      while (true) {
        skipWs();
        std::string key = parseString();
        skipWs();
        expect(':');
        obj.set(std::move(key), parseValue(depth + 1));
        skipWs();
        if (consume(',')) continue;
        expect('}');
        return obj;
      }
    }
    if (c == '[') {
      ++pos;
      JsonValue arr = JsonValue::array();
      skipWs();
      if (consume(']')) return arr;
      while (true) {
        arr.push(parseValue(depth + 1));
        skipWs();
        if (consume(',')) continue;
        expect(']');
        return arr;
      }
    }
    if (c == '"') return JsonValue::string(parseString());
    if (consumeWord("true")) return JsonValue::boolean(true);
    if (consumeWord("false")) return JsonValue::boolean(false);
    if (consumeWord("null")) return JsonValue();
    if (c == '-' || (c >= '0' && c <= '9')) return parseNumber();
    parseFail(pos, std::string("unexpected character '") + c + "'");
  }
};

void appendNumber(std::string& out, double d) {
  // Integers (the only numbers the fleet writes) serialize exactly.
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

/// Escapes `s` as a JSON string literal including the quotes.
std::string jsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

void JsonlWriter::record(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string line = "{";
  for (const auto& [key, value] : fields) {
    if (line.size() > 1) line += ", ";
    line += jsonQuote(key);
    line += ": ";
    line += jsonQuote(value);
  }
  line += "}";
  os_ << line << '\n' << std::flush;
}

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

bool JsonValue::asBool() const {
  if (kind_ != Kind::Bool) throw std::runtime_error("JSON value is not a bool");
  return bool_;
}

double JsonValue::asNumber() const {
  if (kind_ != Kind::Number) throw std::runtime_error("JSON value is not a number");
  return number_;
}

std::uint64_t JsonValue::asU64() const {
  const double d = asNumber();
  if (d < 0 || d != std::floor(d) || d > 9.007199254740992e15) {
    throw std::runtime_error("JSON number is not an unsigned integer");
  }
  return static_cast<std::uint64_t>(d);
}

const std::string& JsonValue::asString() const {
  if (kind_ != Kind::String) throw std::runtime_error("JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::Array) throw std::runtime_error("JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  if (kind_ != Kind::Object) throw std::runtime_error("JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::set(std::string key, JsonValue value) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) throw std::runtime_error("JSON value is not an object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

void JsonValue::push(JsonValue value) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) throw std::runtime_error("JSON value is not an array");
  items_.push_back(std::move(value));
}

void JsonValue::dumpTo(std::string& out, int indent, int depth) const {
  const auto newline = [&](int level) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (kind_) {
    case Kind::Null:
      out += "null";
      return;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::Number:
      appendNumber(out, number_);
      return;
    case Kind::String:
      out += jsonQuote(string_);
      return;
    case Kind::Array: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += indent > 0 ? "," : ", ";
        newline(depth + 1);
        items_[i].dumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      return;
    }
    case Kind::Object: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += indent > 0 ? "," : ", ";
        newline(depth + 1);
        out += jsonQuote(members_[i].first);
        out += ": ";
        members_[i].second.dumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

JsonValue JsonValue::parse(std::string_view text) {
  Parser p{text};
  JsonValue v = p.parseValue(0);
  p.skipWs();
  if (p.pos != text.size()) {
    parseFail(p.pos, "trailing content after JSON document");
  }
  return v;
}

}  // namespace disp
