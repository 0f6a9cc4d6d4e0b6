#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace csfc {
namespace obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::Separate() {
  if (have_key_) {
    have_key_ = false;  // value follows its key; no comma
    return;
  }
  if (need_comma_) out_ += ',';
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (need_comma_) out_ += ',';
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  need_comma_ = false;
  have_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view v) {
  Separate();
  out_ += '"';
  out_ += JsonEscape(v);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  Separate();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no inf/nan
  } else {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, res.ptr);
  }
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  Separate();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  Separate();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  Separate();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

namespace {

void SkipSpace(std::string_view s, size_t* i) {
  while (*i < s.size() &&
         (s[*i] == ' ' || s[*i] == '\t' || s[*i] == '\n' || s[*i] == '\r')) {
    ++*i;
  }
}

Status Malformed(const char* what, size_t pos) {
  return Status::InvalidArgument(std::string("malformed JSON (") + what +
                                 ") at offset " + std::to_string(pos));
}

Result<std::string> ParseString(std::string_view s, size_t* i) {
  if (*i >= s.size() || s[*i] != '"') return Malformed("expected string", *i);
  ++*i;
  std::string out;
  while (*i < s.size()) {
    const char c = s[*i];
    if (c == '"') {
      ++*i;
      return out;
    }
    if (c == '\\') {
      ++*i;
      if (*i >= s.size()) break;
      const char e = s[*i];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (*i + 4 >= s.size()) return Malformed("bad \\u escape", *i);
          unsigned code = 0;
          for (int k = 1; k <= 4; ++k) {
            const char h = s[*i + k];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Malformed("bad \\u escape", *i);
          }
          // The schema is ASCII; decode BMP code points as UTF-8.
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
          *i += 4;
          break;
        }
        default:
          return Malformed("unknown escape", *i);
      }
      ++*i;
    } else {
      out += c;
      ++*i;
    }
  }
  return Malformed("unterminated string", *i);
}

Result<JsonScalar> ParseScalar(std::string_view s, size_t* i) {
  SkipSpace(s, i);
  if (*i >= s.size()) return Malformed("expected value", *i);
  JsonScalar v;
  const char c = s[*i];
  if (c == '"') {
    Result<std::string> str = ParseString(s, i);
    if (!str.ok()) return str.status();
    v.type = JsonScalar::Type::kString;
    v.str = std::move(*str);
    return v;
  }
  if (c == '{' || c == '[') {
    return Malformed("nested containers not supported", *i);
  }
  if (s.compare(*i, 4, "true") == 0) {
    *i += 4;
    v.type = JsonScalar::Type::kBool;
    v.boolean = true;
    return v;
  }
  if (s.compare(*i, 5, "false") == 0) {
    *i += 5;
    v.type = JsonScalar::Type::kBool;
    v.boolean = false;
    return v;
  }
  if (s.compare(*i, 4, "null") == 0) {
    *i += 4;
    v.type = JsonScalar::Type::kNull;
    return v;
  }
  // Number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? is matched
  // first, and from_chars then converts exactly that span. from_chars
  // alone would also take "nan", "inf", ".5", "01" and "1.", which no
  // JSON writer emits (JsonWriter writes non-finite doubles as null).
  const auto digit = [&s](size_t k) {
    return k < s.size() && s[k] >= '0' && s[k] <= '9';
  };
  const auto digits = [&](size_t k) {
    while (digit(k)) ++k;
    return k;
  };
  size_t end = *i + (c == '-' ? 1 : 0);
  if (!digit(end)) return Malformed("expected value", *i);
  end = s[end] == '0' ? end + 1 : digits(end);
  if (end < s.size() && s[end] == '.') {
    if (!digit(end + 1)) return Malformed("expected fraction digits", end);
    end = digits(end + 1);
  }
  if (end < s.size() && (s[end] == 'e' || s[end] == 'E')) {
    size_t k = end + 1;
    if (k < s.size() && (s[k] == '+' || s[k] == '-')) ++k;
    if (!digit(k)) return Malformed("expected exponent digits", end);
    end = digits(k);
  }
  const char* begin = s.data() + *i;
  const char* stop = s.data() + end;
  double num = 0.0;
  const auto res = std::from_chars(begin, stop, num);
  if (res.ec != std::errc{} || res.ptr != stop) {
    return Malformed("expected number", *i);
  }
  *i = end;
  v.type = JsonScalar::Type::kNumber;
  v.num = num;
  return v;
}

}  // namespace

Result<JsonObject> ParseFlatJsonObject(std::string_view line) {
  size_t i = 0;
  SkipSpace(line, &i);
  if (i >= line.size() || line[i] != '{') return Malformed("expected '{'", i);
  ++i;
  JsonObject obj;
  SkipSpace(line, &i);
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      SkipSpace(line, &i);
      Result<std::string> key = ParseString(line, &i);
      if (!key.ok()) return key.status();
      SkipSpace(line, &i);
      if (i >= line.size() || line[i] != ':') return Malformed("expected ':'", i);
      ++i;
      Result<JsonScalar> value = ParseScalar(line, &i);
      if (!value.ok()) return value.status();
      obj[std::move(*key)] = std::move(*value);
      SkipSpace(line, &i);
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      return Malformed("expected ',' or '}'", i);
    }
  }
  SkipSpace(line, &i);
  if (i != line.size()) return Malformed("trailing characters", i);
  return obj;
}

}  // namespace obs
}  // namespace csfc
